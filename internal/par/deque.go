package par

import "sync/atomic"

// deque is a Chase-Lev-style lock-free work-stealing deque (Chase &
// Lev, "Dynamic Circular Work-Stealing Deque", SPAA'05). The owning
// worker pushes and pops at the bottom (LIFO, depth-first order, warm
// caches); thieves steal from the top (FIFO, the oldest — typically
// largest — subtrees), coordinating through a compare-and-swap on the
// top index only. The slots themselves are atomic pointers so the
// implementation is clean under the race detector: a thief may read a
// slot it then fails to claim, and the top CAS alone decides ownership.
// A pointer read from a slot is dereferenced only by whoever won that
// claim, which is what lets the engine reuse nodes (see node).
//
// The zero value is not usable; construct with newDeque.
type deque struct {
	top    atomic.Int64 // next index to steal; only ever incremented
	bottom atomic.Int64 // next index to push; owner-written
	buf    atomic.Pointer[dequeRing]
}

// dequeRing is one power-of-two circular buffer generation.
type dequeRing struct {
	mask  int64
	slots []atomic.Pointer[node]
}

const minDequeCap = 64

func newRing(capacity int64) *dequeRing {
	return &dequeRing{mask: capacity - 1, slots: make([]atomic.Pointer[node], capacity)}
}

func newDeque() *deque {
	d := &deque{}
	d.buf.Store(newRing(minDequeCap))
	return d
}

// size returns a linearizable-enough estimate of the element count;
// exact when no operations are in flight.
func (d *deque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// push appends ts at the bottom in order and publishes them to thieves
// with one store of bottom, however many there are. Owner only.
func (d *deque) push(ts ...*node) {
	if len(ts) == 0 {
		return
	}
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.buf.Load()
	for b-tp+int64(len(ts)) > int64(len(r.slots)) {
		r = d.grow(r, tp, b) //ripslint:allow hotpath the ring doubles to the deque's high-water mark and is kept for the run; growth amortizes to zero
	}
	for i, t := range ts {
		r.slots[(b+int64(i))&r.mask].Store(t)
	}
	d.bottom.Store(b + int64(len(ts)))
}

// grow doubles the ring, copying the live window. Owner only; thieves
// concurrently reading the old ring see identical values at identical
// indices, and the top CAS still arbitrates every claim.
func (d *deque) grow(old *dequeRing, tp, b int64) *dequeRing {
	nr := newRing(int64(len(old.slots)) * 2)
	for i := tp; i < b; i++ {
		nr.slots[i&nr.mask].Store(old.slots[i&old.mask].Load())
	}
	d.buf.Store(nr)
	return nr
}

// pop removes and returns the bottom task, or nil when the deque is
// empty. Owner only.
func (d *deque) pop() *node {
	b := d.bottom.Load() - 1
	r := d.buf.Load()
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Already empty: undo the reservation.
		d.bottom.Store(tp)
		return nil
	}
	t := r.slots[b&r.mask].Load()
	if b > tp {
		return t
	}
	// Exactly one element left: race the thieves for it.
	if !d.top.CompareAndSwap(tp, tp+1) {
		t = nil // a thief won
	}
	d.bottom.Store(tp + 1)
	return t
}

// takeTopInto removes up to len(dst) tasks from the top — the steal
// end, so the oldest and typically largest subtrees leave first — into
// dst, returning the count taken. Quiescent use only: the system phases
// call it with the world stopped at the epoch barrier, so no owner or
// thief is concurrently operating and the plain top-store needs no CAS.
func (d *deque) takeTopInto(dst []*node) int {
	tp := d.top.Load()
	n := d.copyOut(dst, tp, d.bottom.Load())
	d.top.Store(tp + n)
	return int(n)
}

// takeBottomInto removes up to len(dst) tasks from the bottom — the
// owner's end, the newest — into dst in deque order (dst's last element
// was the bottom), returning the count taken. Quiescent use only, like
// takeTopInto.
func (d *deque) takeBottomInto(dst []*node) int {
	b := d.bottom.Load()
	n := d.copyOut(dst, max(d.top.Load(), b-int64(len(dst))), b)
	d.bottom.Store(b - n)
	return int(n)
}

// copyOut copies the tasks at indices [lo, hi), as many of them as dst
// holds, into dst and returns how many.
func (d *deque) copyOut(dst []*node, lo, hi int64) int64 {
	n := max(0, min(hi-lo, int64(len(dst))))
	r := d.buf.Load()
	for i := int64(0); i < n; i++ {
		dst[i] = r.slots[(lo+i)&r.mask].Load()
	}
	return n
}

// steal removes and returns the top task. A nil task with retry=true
// means a concurrent operation claimed the slot first and the thief
// may try again; retry=false means the deque looked empty.
func (d *deque) steal() (t *node, retry bool) {
	tp := d.top.Load()
	b := d.bottom.Load()
	if tp >= b {
		return nil, false
	}
	r := d.buf.Load()
	t = r.slots[tp&r.mask].Load()
	if !d.top.CompareAndSwap(tp, tp+1) {
		return nil, true
	}
	return t, false
}
