package task

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	for i := uint64(0); i < 10; i++ {
		q.PushBack(Task{ID: i})
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := uint64(0); i < 10; i++ {
		got, ok := q.PopFront()
		if !ok || got.ID != i {
			t.Fatalf("PopFront #%d = %+v, %v", i, got, ok)
		}
	}
	if _, ok := q.PopFront(); ok {
		t.Fatal("PopFront on empty queue succeeded")
	}
	if !q.Empty() {
		t.Fatal("queue not empty")
	}
}

func TestQueuePushFront(t *testing.T) {
	var q Queue
	q.PushBack(Task{ID: 2})
	q.PushFront(Task{ID: 1})
	// Exercise the head>0 fast path: pop then push front again.
	got, _ := q.PopFront()
	if got.ID != 1 {
		t.Fatalf("front = %d", got.ID)
	}
	q.PushFront(Task{ID: 0})
	got, _ = q.PopFront()
	if got.ID != 0 {
		t.Fatalf("front = %d", got.ID)
	}
	got, _ = q.PopFront()
	if got.ID != 2 {
		t.Fatalf("front = %d", got.ID)
	}
}

func TestTakeBack(t *testing.T) {
	var q Queue
	for i := uint64(0); i < 5; i++ {
		q.PushBack(Task{ID: i})
	}
	got := q.TakeBack(2)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Fatalf("TakeBack(2) = %v", got)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if got := q.TakeBack(99); len(got) != 3 {
		t.Fatalf("TakeBack(99) = %d tasks", len(got))
	}
	if got := q.TakeBack(1); got != nil {
		t.Fatalf("TakeBack on empty = %v", got)
	}
	if got := q.TakeBack(0); got != nil {
		t.Fatalf("TakeBack(0) = %v", got)
	}
	if got := q.TakeBack(-1); got != nil {
		t.Fatalf("TakeBack(-1) = %v", got)
	}
}

func TestDrainAndPushAll(t *testing.T) {
	var q Queue
	x := 0
	q.PushAll([]Task{{ID: 1, Data: &x}, {ID: 2, Data: &x}, {ID: 3, Data: &x}})
	q.PopFront()
	all := q.Drain()
	if len(all) != 2 || all[0].ID != 2 || all[1].ID != 3 {
		t.Fatalf("Drain = %v", all)
	}
	if !q.Empty() {
		t.Fatal("queue not empty after Drain")
	}
	for i, dead := range q.items[:cap(q.items)] {
		if dead.Data != nil {
			t.Fatalf("Drain retained payload reference at slot %d", i)
		}
	}
	q.PushBack(Task{ID: 9})
	if q.Len() != 1 {
		t.Fatalf("Len after reuse = %d", q.Len())
	}
}

func TestCompaction(t *testing.T) {
	var q Queue
	// Interleave pushes and pops to force head growth and compaction.
	for i := uint64(0); i < 1000; i++ {
		q.PushBack(Task{ID: i})
		if i%2 == 1 {
			q.PopFront()
		}
	}
	if q.Len() != 500 {
		t.Fatalf("Len = %d", q.Len())
	}
	want := uint64(999) // the back element
	if got := q.TakeBack(1); got[0].ID != want {
		t.Fatalf("TakeBack(1) = %d, want %d", got[0].ID, want)
	}
	if q.head >= len(q.items) && q.Len() > 0 {
		t.Fatal("internal invariant violated after compaction")
	}
}

// TestQueueModel drives the queue with random operations against a
// plain-slice model, via testing/quick.
func TestQueueModel(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var model []Task
		next := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0: // PushBack
				tk := Task{ID: next}
				next++
				q.PushBack(tk)
				model = append(model, tk)
			case 1: // PushFront
				tk := Task{ID: next}
				next++
				q.PushFront(tk)
				model = append([]Task{tk}, model...)
			case 2: // PopFront
				got, ok := q.PopFront()
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || got.ID != model[0].ID {
						return false
					}
					model = model[1:]
				}
			case 3: // TakeBack(k)
				k := rng.Intn(4)
				got := q.TakeBack(k)
				if k > len(model) {
					k = len(model)
				}
				if len(got) != k {
					return false
				}
				for i := 0; i < k; i++ {
					if got[i].ID != model[len(model)-k+i].ID {
						return false
					}
				}
				model = model[:len(model)-k]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// fillToCap pushes tasks numbered from *next until the backing array is
// full, so that the very next push has to regrow.
func fillToCap(q *Queue, next *uint64) {
	for len(q.items) < cap(q.items) || cap(q.items) == 0 {
		q.PushBack(Task{ID: *next})
		*next++
	}
}

// TestRegrowKeepsOrder regrows a queue that has a dead prefix before
// head — through PushBack and through PushAll, into a fresh array and
// (when the dead prefix is as long as the live part) within the old
// one — and checks every way of taking tasks out against the plain
// sequence.
func TestRegrowKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		half  bool // pop half of the full array before the regrow, not just 7 tasks
		batch int  // tasks pushed by the regrowing call
		all   bool // PushAll instead of PushBack
		fresh bool // expect a new backing array
	}{
		{"pushback-fresh", false, 1, false, true},
		{"pushall-fresh", false, 50, true, true},
		{"pushall-in-place", true, 3, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			var next uint64
			fillToCap(&q, &next)
			pops := 7
			if tc.half {
				pops = len(q.items) / 2
			}
			for i := 0; i < pops; i++ {
				q.PopFront()
			}
			if q.head != pops {
				t.Fatalf("head = %d before the regrow, want the dead prefix of %d", q.head, pops)
			}
			first, old := uint64(pops), &q.items[0]

			if tc.all {
				batch := make([]Task, tc.batch)
				for i := range batch {
					batch[i] = Task{ID: next}
					next++
				}
				q.PushAll(batch)
			} else {
				q.PushBack(Task{ID: next})
				next++
			}
			if q.head != 0 {
				t.Errorf("head = %d after the regrow, want the live tasks moved to the start", q.head)
			}
			if fresh := &q.items[0] != old; fresh != tc.fresh {
				t.Errorf("regrow into a fresh array = %v, want %v", fresh, tc.fresh)
			}
			if want := int(next - first); q.Len() != want {
				t.Fatalf("Len = %d after the regrow, want %d", q.Len(), want)
			}

			// Back: the newest four.
			if got := q.TakeBack(4); len(got) != 4 || got[0].ID != next-4 || got[3].ID != next-1 {
				t.Errorf("TakeBack(4) = %+v, want IDs %d..%d", got, next-4, next-1)
			}
			// Front: everything left, in FIFO order.
			for want := first; want < next-4; want++ {
				if got, ok := q.PopFront(); !ok || got.ID != want {
					t.Fatalf("PopFront = %+v, %v, want ID %d", got, ok, want)
				}
			}
			if !q.Empty() {
				t.Errorf("%d tasks left over", q.Len())
			}
		})
	}
}

// TestSettledQueueZeroAlloc pins the other half of regrowth: a queue
// whose length has settled must reclaim its dead prefix in place, not
// move to a new array every time head has walked across the old one.
func TestSettledQueueZeroAlloc(t *testing.T) {
	for _, live := range []int{1, 8, 64, 1000} {
		var q Queue
		for i := 0; i < live; i++ {
			q.PushBack(Task{ID: uint64(i)})
		}
		batch := make([]Task, 8)
		cycle := func() { // several times round the array, both push forms
			for i := 0; i < 4*live; i++ {
				q.PushBack(Task{})
				q.PopFront()
			}
			for i := 0; i < live; i++ {
				q.PushAll(batch)
				for range batch {
					q.PopFront()
				}
			}
		}
		cycle() // reach the high-water mark
		if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
			t.Errorf("live=%d: a settled queue allocates %.1f times per cycle", live, avg)
		}
		if q.Len() != live {
			t.Errorf("live=%d: Len = %d after the cycles", live, q.Len())
		}
	}
}

// growWorkload is the shape of a user phase that spawns faster than it
// executes: n pushes, a PopFront after every second one.
func growWorkload(q *Queue, n int) {
	for i := 0; i < n; i++ {
		q.PushBack(Task{ID: uint64(i)})
		if i%2 == 1 {
			q.PopFront()
		}
	}
}

// TestRegrowAllocBudget bounds the bytes a growing queue allocates over
// its life. Doubling from the live size comes to about twice the final
// array; append's 1.25x steps over the dead prefix came to about five
// times n tasks.
func TestRegrowAllocBudget(t *testing.T) {
	const n = 1 << 16
	var q Queue
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	growWorkload(&q, n)
	runtime.ReadMemStats(&after)
	if q.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", q.Len(), n/2)
	}
	got := after.TotalAlloc - before.TotalAlloc
	budget := uint64(3 * n * int(unsafe.Sizeof(Task{})))
	t.Logf("%d pushes, %d pops: %d bytes allocated, %.2f x n x sizeof(Task)", n, n/2, got, float64(got)/float64(budget/3))
	if got > budget {
		t.Errorf("allocated %d bytes for %d pushes, budget %d (3 x n x sizeof(Task))", got, n, budget)
	}
}

// BenchmarkQueueGrow is one queue's growth from empty to 32Ki live
// tasks under the spawn-faster-than-execute shape; B/op is the number
// TestRegrowAllocBudget bounds.
func BenchmarkQueueGrow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q Queue
		growWorkload(&q, 1<<16)
	}
}
