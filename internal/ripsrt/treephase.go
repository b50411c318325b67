package ripsrt

import (
	"rips/internal/invariant"
	"rips/internal/sim"
	"rips/internal/topo"
)

// treeSched is the message-passing Tree Walking Algorithm (the
// paper's optimal parallel scheduler for tree machines, ref [25]):
// an upward sweep accumulates subtree totals, the root broadcasts the
// average, and tasks then move along tree links — whose flows are
// forced to subtreeTotal - subtreeQuota, so the schedule is optimal
// for the quota assignment.
type treeSched struct {
	tree     *topo.Tree
	id       int
	parent   int
	children []int
}

func newTreeSched(t *topo.Tree, id int) *treeSched {
	return &treeSched{tree: t, id: id, parent: t.Parent(id), children: t.Children(id)}
}

// subRange iterates the heap-order id ranges of v's subtree level by
// level: level l of subtree v occupies [(v+1)*2^l - 1, (v+1)*2^l - 1 + 2^l).
func (ts *treeSched) subRanges(v int, visit func(lo, hi int)) {
	n := ts.tree.Size()
	for width := 1; ; width *= 2 {
		lo := (v+1)*width - 1
		if lo >= n {
			return
		}
		hi := lo + width
		if hi > n {
			hi = n
		}
		visit(lo, hi)
	}
}

// subSize returns the number of nodes in v's subtree.
func (ts *treeSched) subSize(v int) int {
	size := 0
	ts.subRanges(v, func(lo, hi int) { size += hi - lo })
	return size
}

// subQuota returns the total quota of v's subtree: avg per node plus
// one extra for every subtree id below rem.
func (ts *treeSched) subQuota(v int, bc bcastMsg) int {
	q := bc.avg * ts.subSize(v)
	ts.subRanges(v, func(lo, hi int) {
		if hi > bc.rem {
			hi = bc.rem
		}
		if lo < hi {
			q += hi - lo
		}
	})
	return q
}

// phase runs one Tree Walking Algorithm round.
func (ts *treeSched) phase(st *nodeState) int {
	n := st.n
	st.overhead(costPerPhase)
	st.rts.PushAll(st.rte.Drain())
	w := st.rts.Len()
	st.ownTaken = 0

	// Upward sweep: subtree totals.
	childTotal := make([]int, len(ts.children))
	subTotal := w
	for i, c := range ts.children {
		childTotal[i] = n.RecvFrom(c, tagColT).Data.(int)
		subTotal += childTotal[i]
	}
	if ts.parent >= 0 {
		n.SendTag(ts.parent, tagColT, subTotal, 8)
	}

	// Root derives the quotas and broadcasts them down the tree.
	var bc bcastMsg
	if ts.parent < 0 {
		bc = bcastMsg{avg: subTotal / n.N(), rem: subTotal % n.N(), total: subTotal}
	} else {
		bc = n.RecvFrom(ts.parent, tagSpread).Data.(bcastMsg)
	}
	for _, c := range ts.children {
		n.SendTag(c, tagSpread, bc, 24)
	}
	st.overhead(costPerElem * sim.Time(len(ts.children)+1))

	st.phase++
	if bc.total == 0 {
		return 0
	}

	// Link flows are forced: each subtree exports its surplus.
	myFlow := 0
	if ts.parent >= 0 {
		myFlow = subTotal - ts.subQuota(ts.id, bc)
	}
	// Receive from overloaded children first (bottom-up order)...
	for i, c := range ts.children {
		if childTotal[i]-ts.subQuota(c, bc) > 0 {
			st.acceptTasks(n.RecvFrom(c, tagUp).Data.(horzMsg).tasks)
		}
	}
	// ...then export our own surplus...
	if myFlow > 0 {
		bundle := st.takeTasks(myFlow)
		n.SendTag(ts.parent, tagUp, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
	}
	// ...then the downward sweep: receive our deficit, feed deficits
	// below (top-down order).
	if myFlow < 0 {
		st.acceptTasks(n.RecvFrom(ts.parent, tagDown).Data.(horzMsg).tasks)
	}
	for i, c := range ts.children {
		if f := childTotal[i] - ts.subQuota(c, bc); f < 0 {
			bundle := st.takeTasks(-f)
			n.SendTag(c, tagDown, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
		}
	}

	// Theorem 1 (exact quota) and Theorem 2 (no resident task exported
	// beyond the surplus) hold per node after the walk.
	quota := bc.avg
	if ts.id < bc.rem {
		quota++
	}
	got := st.rts.Len() + len(st.inbox)
	invariant.BalancedWithinOne(got, bc.total, n.N(), ts.id, "ripsrt: tree system phase")
	invariant.Locality(st.ownTaken, w-quota, "ripsrt: tree system phase")
	st.rte.PushAll(st.rts.Drain())
	st.rte.PushAll(st.inbox)
	st.inbox = nil
	return bc.total
}
