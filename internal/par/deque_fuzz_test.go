package par

import (
	"runtime"
	"sync"
	"testing"

	"rips/internal/task"
)

// refDeque is the trivially correct model the Chase-Lev deque is
// checked against: a slice with owner operations at the back and
// steals at the front.
type refDeque struct{ ids []uint64 }

func (r *refDeque) push(id uint64) { r.ids = append(r.ids, id) }

func (r *refDeque) pop() (uint64, bool) {
	if len(r.ids) == 0 {
		return 0, false
	}
	id := r.ids[len(r.ids)-1]
	r.ids = r.ids[:len(r.ids)-1]
	return id, true
}

func (r *refDeque) steal() (uint64, bool) {
	if len(r.ids) == 0 {
		return 0, false
	}
	id := r.ids[0]
	r.ids = r.ids[1:]
	return id, true
}

// dequeOps decodes one fuzz input into an operation stream: each byte
// below 170 pushes 1-7 tasks, bytes in [170,213) pop, the rest steal.
// The same stream drives both fuzz phases so every corpus entry
// exercises the sequential model check and the concurrent
// exactly-once check.
const (
	opPopByte   = 170
	opStealByte = 213
)

// FuzzDeque cross-checks the lock-free work-stealing deque against
// the reference model, in two phases per input.
//
// Phase A replays the operation stream sequentially — push and pop as
// the owner, steal as a lone thief — and requires the exact IDs the
// model produces: LIFO at the bottom, FIFO at the top, empty answers
// included.
//
// Phase B replays the same stream with real concurrency: the owner
// runs its push/pop ops on one goroutine while 1-4 thieves (decoded
// from the first byte) steal continuously. Linearizability of the
// top-CAS protocol shows up as two checkable facts: every pushed task
// is claimed by exactly one party (no loss, no duplication — what lets
// the deque engine end a round on a barrier snapshot of empty deques
// with no count of outstanding tasks), and each
// thief's claimed IDs are strictly increasing (steals drain the top
// monotonically). Run with -race for the memory-order half of the
// argument.
func FuzzDeque(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 200, 250, 5})
	// Push bursts, then a drain race: many steals against pops.
	f.Add([]byte{0, 100, 150, 169, 220, 230, 240, 250, 180, 190, 200, 210})
	// Grow the ring past minDequeCap (each low byte pushes up to 7).
	f.Add([]byte{2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 255, 255})
	// Alternating push/pop around empty, the pop-vs-steal CAS window.
	f.Add([]byte{1, 7, 170, 170, 7, 213, 213, 7, 170, 213})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDequeSequential(t, data)
		fuzzDequeConcurrent(t, data)
	})
}

func fuzzDequeSequential(t *testing.T, data []byte) {
	d := newDeque()
	ref := &refDeque{}
	var next uint64
	for i, b := range data {
		switch {
		case b < opPopByte:
			for k := byte(0); k <= b%7; k++ {
				next++
				d.push(&task.Task{ID: next})
				ref.push(next)
			}
		case b < opStealByte:
			got := d.pop()
			want, ok := ref.pop()
			if (got != nil) != ok || (got != nil && got.ID != want) {
				t.Fatalf("op %d: pop = %v, model says (%d, %v)", i, got, want, ok)
			}
		default:
			got, retry := d.steal()
			if retry {
				t.Fatalf("op %d: sequential steal asked to retry", i)
			}
			want, ok := ref.steal()
			if (got != nil) != ok || (got != nil && got.ID != want) {
				t.Fatalf("op %d: steal = %v, model says (%d, %v)", i, got, want, ok)
			}
		}
	}
	if n, want := d.size(), int64(len(ref.ids)); n != want {
		t.Fatalf("final size %d, model has %d", n, want)
	}
}

func fuzzDequeConcurrent(t *testing.T, data []byte) {
	thieves := 1
	if len(data) > 0 {
		thieves = int(data[0])%4 + 1
		data = data[1:]
	}
	d := newDeque()
	var (
		pushed  uint64 // total tasks the owner will have pushed
		claimed sync.Map
		done    = make(chan struct{})
	)
	claim := func(t_ *task.Task, by int) bool {
		_, dup := claimed.LoadOrStore(t_.ID, by)
		return !dup
	}

	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var last uint64
			for {
				tk, retry := d.steal()
				if tk != nil {
					if tk.ID <= last {
						t.Errorf("thief %d stole ID %d after %d (top not monotone)", id, tk.ID, last)
						return
					}
					last = tk.ID
					if !claim(tk, id) {
						t.Errorf("thief %d stole ID %d twice", id, tk.ID)
						return
					}
					continue
				}
				if retry {
					continue
				}
				select {
				case <-done:
					// Owner finished; one clean sweep may still find
					// stragglers, then the deque is genuinely empty.
					if tk, _ := d.steal(); tk == nil {
						return
					} else if !claim(tk, id) {
						t.Errorf("thief %d stole ID %d twice", id, tk.ID)
						return
					}
				default:
					runtime.Gosched()
				}
			}
		}(i)
	}

	var next uint64
	for _, b := range data {
		switch {
		case b < opPopByte:
			for k := byte(0); k <= b%7; k++ {
				next++
				d.push(&task.Task{ID: next})
			}
		case b < opStealByte:
			if tk := d.pop(); tk != nil && !claim(tk, -1) {
				t.Errorf("owner popped ID %d already claimed", tk.ID)
			}
		default:
			runtime.Gosched()
		}
	}
	pushed = next
	// Owner drains what the thieves have not taken by the time it
	// finishes — every task must surface exactly once somewhere.
	for {
		tk := d.pop()
		if tk == nil {
			break
		}
		if !claim(tk, -1) {
			t.Errorf("owner drained ID %d already claimed", tk.ID)
		}
	}
	close(done)
	wg.Wait()

	var total uint64
	claimed.Range(func(k, _ any) bool {
		total++
		id := k.(uint64)
		if id < 1 || id > pushed {
			t.Errorf("claimed ID %d was never pushed (pushed 1..%d)", id, pushed)
		}
		return true
	})
	if total != pushed {
		t.Errorf("claimed %d distinct tasks, pushed %d (lost %d)", total, pushed, pushed-total)
	}
}
