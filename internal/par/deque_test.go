package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDequeOwnerLIFO(t *testing.T) {
	d := newDeque()
	if got := d.pop(); got != nil {
		t.Fatalf("pop of empty deque = %v, want nil", got)
	}
	const n = 200 // crosses the initial ring capacity, exercising grow
	for i := uint64(0); i < n; i++ {
		d.push(&node{id: i})
	}
	if got := d.size(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	for i := uint64(n); i > 0; i-- {
		got := d.pop()
		if got == nil || got.id != i-1 {
			t.Fatalf("pop = %v, want ID %d", got, i-1)
		}
	}
	if got := d.pop(); got != nil {
		t.Fatalf("pop after drain = %v, want nil", got)
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := newDeque()
	if _, retry := d.steal(); retry {
		t.Fatal("steal of empty deque reported retry")
	}
	for i := uint64(0); i < 10; i++ {
		d.push(&node{id: i})
	}
	for i := uint64(0); i < 10; i++ {
		tk, _ := d.steal()
		if tk == nil || tk.id != i {
			t.Fatalf("steal = %v, want ID %d", tk, i)
		}
	}
	if tk, retry := d.steal(); tk != nil || retry {
		t.Fatalf("steal after drain = (%v, %v), want (nil, false)", tk, retry)
	}
}

// TestDequeOwnerFIFO is the pop order of a worker nobody steals from:
// the owner claims from the top with steal, oldest first, while it keeps
// pushing at the bottom — across ring wrap-around and growth, and with
// no claim ever asked to retry.
func TestDequeOwnerFIFO(t *testing.T) {
	d := newDeque()
	var pushed, popped uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 9; i++ { // nine in, four out: the window grows past minDequeCap and wraps
			d.push(&node{id: pushed})
			pushed++
		}
		for i := 0; i < 4; i++ {
			tk, retry := d.steal()
			if retry || tk == nil || tk.id != popped {
				t.Fatalf("owner-side steal = (%v, %v), want ID %d and no retry", tk, retry, popped)
			}
			popped++
		}
	}
	if got := d.size(); got != int64(pushed-popped) {
		t.Fatalf("size = %d, want %d", got, pushed-popped)
	}
}

// TestDequeBulkPush pushes batches in one call: order is kept, a batch
// larger than twice the ring grows it as often as it takes, and an empty
// batch is a no-op.
func TestDequeBulkPush(t *testing.T) {
	d := newDeque()
	d.push()
	if d.size() != 0 {
		t.Fatalf("empty push left %d tasks", d.size())
	}
	var next uint64
	for _, n := range []int{3, 5 * minDequeCap, 1, 40} {
		batch := make([]*node, n)
		for i := range batch {
			batch[i] = &node{id: next}
			next++
		}
		d.push(batch...)
	}
	if got := d.size(); got != int64(next) {
		t.Fatalf("size = %d after bulk pushes, want %d", got, next)
	}
	if tk := d.pop(); tk == nil || tk.id != next-1 {
		t.Fatalf("pop = %v, want the last task pushed (ID %d)", tk, next-1)
	}
	for want := uint64(0); want < next-1; want++ {
		if tk, _ := d.steal(); tk == nil || tk.id != want {
			t.Fatalf("steal = %v, want ID %d", tk, want)
		}
	}
}

// TestTakeBottomInto unit-tests the quiescent bulk take of a fifo
// worker's export: the newest tasks leave, in deque order, the oldest
// stay for the owner, and over-asking takes exactly what is there.
func TestTakeBottomInto(t *testing.T) {
	d := newDeque()
	tasks := make([]node, 6)
	for i := range tasks {
		tasks[i] = node{id: uint64(i)}
		d.push(&tasks[i])
	}
	dst := make([]*node, 4)
	if got := d.takeBottomInto(dst); got != 4 {
		t.Fatalf("takeBottomInto(4 of 6) = %d", got)
	}
	for i := 0; i < 4; i++ {
		if dst[i].id != uint64(i+2) {
			t.Errorf("taken[%d].ID = %d, want %d (the newest four, in deque order)", i, dst[i].id, i+2)
		}
	}
	if tk, _ := d.steal(); tk == nil || tk.id != 0 {
		t.Errorf("owner-side steal after bulk take = %v, want ID 0 (the oldest stays)", tk)
	}
	big := make([]*node, 8)
	if got := d.takeBottomInto(big); got != 1 || big[0].id != 1 {
		t.Errorf("takeBottomInto(8 of 1) = %d, big[0]=%v; want 1 task with ID 1", got, big[0])
	}
	if got := d.takeBottomInto(big); got != 0 {
		t.Errorf("takeBottomInto(empty) = %d, want 0", got)
	}
}

// TestDequeConcurrent has one owner pushing and popping against
// several thieves; every task must be consumed exactly once. Run
// under -race this also proves the memory-ordering discipline.
func TestDequeConcurrent(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := newDeque()
	consumed := make([]atomic.Int32, total)
	record := func(tk *node) {
		if n := consumed[tk.id].Add(1); n != 1 {
			t.Errorf("task %d consumed %d times", tk.id, n)
		}
	}
	var left atomic.Int64
	left.Store(total)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner: push all, popping every third task along the way
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			d.push(&node{id: i})
			if i%3 == 0 {
				if tk := d.pop(); tk != nil {
					record(tk)
					left.Add(-1)
				}
			}
		}
		for {
			tk := d.pop()
			if tk == nil {
				if left.Load() == 0 {
					return
				}
				continue
			}
			record(tk)
			left.Add(-1)
		}
	}()
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Load() > 0 {
				tk, _ := d.steal()
				if tk != nil {
					record(tk)
					left.Add(-1)
				}
			}
		}()
	}
	wg.Wait()

	for i := range consumed {
		if consumed[i].Load() != 1 {
			t.Fatalf("task %d consumed %d times, want exactly once", i, consumed[i].Load())
		}
	}
}
