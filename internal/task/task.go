// Package task defines the unit of schedulable work and the queues the
// paper's runtime keeps on every processor: the ready-to-execute (RTE)
// queue and, under eager scheduling, the ready-to-schedule (RTS) queue.
package task

// Task is one schedulable unit. The scheduler treats all tasks as
// equal-sized (the paper's simplifying assumption — grain-size error is
// corrected by the next system phase); the application supplies the
// payload and the actual work is discovered on execution.
type Task struct {
	// ID is unique within a run (assigned by the generating node from
	// a node-partitioned sequence).
	ID uint64
	// Origin is the node that generated the task. A task executed on a
	// node other than Origin is "nonlocal" — the paper's locality
	// metric (Table I column 2).
	Origin int
	// Size is the serialized payload size in bytes, used to price
	// migration messages.
	Size int
	// Data is the application payload; the scheduler never inspects it.
	Data any
}

// Queue is a double-ended task queue. The zero value is an empty queue
// ready for use. Execution consumes from the front; migration takes
// from the back, so the tasks a node generated most recently (best
// locality of reference) are the ones exported.
type Queue struct {
	items []Task
	head  int
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Empty reports whether the queue has no tasks.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// PushBack appends a task at the back.
func (q *Queue) PushBack(t Task) {
	if len(q.items) == cap(q.items) {
		q.grow(1)
	}
	q.items = append(q.items, t) //ripslint:allow hotpath grow has made room, so this append never reallocates
}

// grow makes room for extra more tasks behind the live ones, moving
// only the live tasks. When the dead prefix before head is at least as
// long as the live part and the array would hold them all, they slide
// down within it: each PopFront has paid for one slot of that copy, and
// a queue whose length has settled never allocates again. Otherwise
// they move into a fresh array of twice the live count, or of exactly
// what is needed when a batch is larger than that, and never of less
// than minCap. Growing from the live count allocates at most about
// three times the last array over a queue's life; append's 1.25x steps
// for large slices, each copying the dead prefix too, came to about
// five times.
func (q *Queue) grow(extra int) {
	live := q.Len()
	if q.head >= live && live+extra <= cap(q.items) {
		q.compact()
		return
	}
	items := make([]Task, live, max(live+extra, 2*live, minCap)) //ripslint:allow hotpath the backing array grows to the high-water mark once and is kept across phases; steady-state growth is zero (TestSteadyStateZeroAlloc pins it)
	copy(items, q.items[q.head:])
	q.items, q.head = items, 0
}

// compactMin is the dead prefix maybeCompact always tolerates, and
// minCap the smallest array grow allocates: twice that, so a queue of
// a few tasks is compacted by the check in PopFront every compactMin
// pops and does not come to grow each time it has walked across a
// two-slot array.
const (
	compactMin = 32
	minCap     = 2 * compactMin
)

// PushFront prepends a task at the front.
func (q *Queue) PushFront(t Task) {
	if q.head > 0 {
		q.head--
		q.items[q.head] = t
		return
	}
	q.items = append([]Task{t}, q.items...)
}

// PopFront removes and returns the front task; ok is false when empty.
func (q *Queue) PopFront() (t Task, ok bool) {
	if q.Empty() {
		return Task{}, false
	}
	t = q.items[q.head]
	q.items[q.head] = Task{} // release payload reference
	q.head++
	q.maybeCompact()
	return t, true
}

// TakeBack removes up to n tasks from the back and returns them in
// queue order (the slice's last element was the queue's back).
func (q *Queue) TakeBack(n int) []Task {
	if n <= 0 {
		return nil
	}
	if n > q.Len() {
		n = q.Len()
	}
	if n == 0 {
		return nil
	}
	cut := len(q.items) - n
	out := make([]Task, n)
	copy(out, q.items[cut:])
	for i := cut; i < len(q.items); i++ {
		q.items[i] = Task{}
	}
	q.items = q.items[:cut]
	q.maybeCompact()
	return out
}

// Drain removes and returns all tasks in queue order.
func (q *Queue) Drain() []Task {
	out := make([]Task, q.Len())
	copy(out, q.items[q.head:])
	clear(q.items[q.head:]) // release payload references
	q.items = q.items[:0]
	q.head = 0
	return out
}

// PushAll appends tasks preserving slice order.
func (q *Queue) PushAll(ts []Task) {
	if len(q.items)+len(ts) > cap(q.items) {
		q.grow(len(ts))
	}
	q.items = append(q.items, ts...) //ripslint:allow hotpath grow has made room, so this append never reallocates
}

// maybeCompact reclaims the dead prefix once it dominates the backing
// array, keeping amortized O(1) operations without unbounded growth.
func (q *Queue) maybeCompact() {
	if q.head > compactMin && q.head > len(q.items)/2 {
		q.compact()
	}
}

// compact slides the live tasks down to the start of the array.
func (q *Queue) compact() {
	n := copy(q.items, q.items[q.head:])
	for i := n; i < len(q.items); i++ {
		q.items[i] = Task{}
	}
	q.items = q.items[:n]
	q.head = 0
}
