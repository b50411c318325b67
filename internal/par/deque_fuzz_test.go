package par

import (
	"runtime"
	"sync"
	"testing"
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

// takeBottom removes the last min(n, len) IDs and returns them in order.
func (r *refDeque) takeBottom(n int) []uint64 {
	cut := max(0, len(r.ids)-n)
	out := r.ids[cut:]
	r.ids = r.ids[:cut]
	return out
}

// dequeOps decodes one fuzz input into an operation stream: each byte
// below 126 pushes 1-7 tasks one call each, bytes in [126,140) recycle —
// take a node, overwrite it as a new task and push it again, what the
// engine does with every node it executes — bytes in [140,170) push a
// batch of 1-146 in one call, [170,213) pop, [213,240) steal — which is
// also how a worker nobody steals from takes its own oldest task — and
// the rest take the newest 1-16 in bulk. The same stream drives both
// fuzz phases so every corpus entry exercises the sequential model
// check and the concurrent exactly-once check.
const (
	opRecycleByte = 126
	opBulkByte    = 140
	opPopByte     = 170
	opStealByte   = 213
	opTakeByte    = 240
)

// bulkLen is the batch size a bulk-push byte encodes; the largest is
// more than twice minDequeCap, so one call can grow the ring twice.
func bulkLen(b byte) int { return int(b-opBulkByte)*5 + 1 }

// FuzzDeque cross-checks the lock-free work-stealing deque against
// the reference model, in two phases per input.
//
// Phase A replays the operation stream sequentially — push, bulk push,
// pop and the quiescent bulk take as the owner, steal as a lone thief —
// and requires the exact IDs the model produces: LIFO at the bottom,
// FIFO at the top, empty answers included. A recycle takes from the
// bottom on an even byte and from the top on an odd one, and pushes the
// node it got under the next ID.
//
// Phase B replays the same stream with real concurrency: the owner
// runs its push/bulk-push/pop ops on one goroutine while 1-4 thieves
// (decoded from the first byte) steal continuously; the bulk take is
// for a stopped world and sits this phase out. Thieves hand the nodes
// they claimed to a pool, and a recycle rewrites one of those (or, the
// pool empty, one the owner pops) and pushes it again while other
// thieves may still hold its address from a claim they lost: a node is
// written by its holder only, so the race detector flags any party that
// looks behind a pointer it did not win. Linearizability of the
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
	// A fifo worker's life: batches in, oldest out, newest exported.
	f.Add([]byte{2, 145, 213, 213, 250, 6, 214, 255, 255, 169, 240, 213})
	// One batch that doubles the ring twice, then both ends drained.
	f.Add([]byte{3, 169, 169, 245, 180, 220, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	// Recycling: nodes taken from either end go straight back in as new
	// tasks, around empty and with thieves on the same few slots.
	f.Add([]byte{3, 126, 4, 127, 128, 129, 213, 130, 131, 2, 132, 134, 136, 138, 170, 133, 135, 137, 139, 139})

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
		case b < opRecycleByte:
			for k := byte(0); k <= b%7; k++ {
				next++
				d.push(&node{id: next})
				ref.push(next)
			}
		case b < opBulkByte:
			var got *node
			var want uint64
			var ok bool
			if b%2 == 0 {
				got = d.pop()
				want, ok = ref.pop()
			} else {
				got, _ = d.steal()
				want, ok = ref.steal()
			}
			if (got != nil) != ok || (got != nil && got.id != want) {
				t.Fatalf("op %d: recycle took %v, model says (%d, %v)", i, got, want, ok)
			}
			if got != nil {
				next++
				*got = node{id: next}
				d.push(got)
				ref.push(next)
			}
		case b < opPopByte:
			batch := make([]*node, bulkLen(b))
			for k := range batch {
				next++
				batch[k] = &node{id: next}
				ref.push(next)
			}
			d.push(batch...)
		case b < opStealByte:
			got := d.pop()
			want, ok := ref.pop()
			if (got != nil) != ok || (got != nil && got.id != want) {
				t.Fatalf("op %d: pop = %v, model says (%d, %v)", i, got, want, ok)
			}
		case b < opTakeByte:
			got, retry := d.steal()
			if retry {
				t.Fatalf("op %d: sequential steal asked to retry", i)
			}
			want, ok := ref.steal()
			if (got != nil) != ok || (got != nil && got.id != want) {
				t.Fatalf("op %d: steal = %v, model says (%d, %v)", i, got, want, ok)
			}
		default:
			dst := make([]*node, int(b-opTakeByte)+1)
			want := ref.takeBottom(len(dst))
			if got := d.takeBottomInto(dst); got != len(want) {
				t.Fatalf("op %d: takeBottomInto(%d) = %d, model says %d", i, len(dst), got, len(want))
			}
			for k, id := range want {
				if dst[k].id != id {
					t.Fatalf("op %d: takeBottomInto[%d] = ID %d, model says %d", i, k, dst[k].id, id)
				}
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
	claim := func(t_ *node, by int) bool {
		_, dup := claimed.LoadOrStore(t_.id, by)
		return !dup
	}
	// pool holds the nodes thieves have claimed and are done with.
	var (
		poolMu sync.Mutex
		pool   []*node
	)
	retire := func(tk *node) {
		poolMu.Lock()
		pool = append(pool, tk)
		poolMu.Unlock()
	}
	reuse := func() *node {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(pool) == 0 {
			return nil
		}
		tk := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		return tk
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
					if tk.id <= last {
						t.Errorf("thief %d stole ID %d after %d (top not monotone)", id, tk.id, last)
						return
					}
					last = tk.id
					if !claim(tk, id) {
						t.Errorf("thief %d stole ID %d twice", id, tk.id)
						return
					}
					retire(tk)
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
						t.Errorf("thief %d stole ID %d twice", id, tk.id)
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
		case b < opRecycleByte:
			for k := byte(0); k <= b%7; k++ {
				next++
				d.push(&node{id: next})
			}
		case b < opBulkByte:
			tk := reuse()
			if tk == nil {
				if tk = d.pop(); tk == nil {
					continue
				}
				if !claim(tk, -1) {
					t.Errorf("owner popped ID %d already claimed", tk.id)
				}
			}
			next++
			*tk = node{id: next}
			d.push(tk)
		case b < opPopByte:
			batch := make([]*node, bulkLen(b))
			for k := range batch {
				next++
				batch[k] = &node{id: next}
			}
			d.push(batch...)
		case b < opStealByte:
			if tk := d.pop(); tk != nil && !claim(tk, -1) {
				t.Errorf("owner popped ID %d already claimed", tk.id)
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
			t.Errorf("owner drained ID %d already claimed", tk.id)
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
