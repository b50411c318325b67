package ripsrt

import (
	"rips/internal/invariant"
	"rips/internal/topo"
)

// cubeSched is the incremental Dimension Exchange Method on a
// hypercube — the prior-art parallel scheduler the paper's Section 5
// discusses (Cybenko's DEM, run incrementally per Willebeek-LeMair &
// Reeves). One sweep pairs the nodes across each dimension in turn and
// splits their loads; the result is balanced to within the cube
// dimension rather than within one task, and the next system phase
// corrects what this one leaves — the contrast RIPS-on-mesh's MWA is
// measured against.
type cubeSched struct {
	cube *topo.Hypercube
	id   int
}

func newCubeSched(h *topo.Hypercube, id int) *cubeSched {
	return &cubeSched{cube: h, id: id}
}

// phase runs one total-count butterfly plus one full DEM sweep.
func (cs *cubeSched) phase(st *nodeState) int {
	n := st.n
	st.overhead(costPerPhase)
	st.rts.PushAll(st.rte.Drain())
	w := st.rts.Len()
	st.ownTaken = 0

	// Butterfly all-reduce of the task total: after d exchanges every
	// node knows T.
	total := w
	for k := 0; k < cs.cube.Dim(); k++ {
		p := cs.id ^ (1 << k)
		n.SendTag(p, tagColT, total, 8)
		total += n.RecvFrom(p, tagColT).Data.(int)
	}
	st.phase++
	if total == 0 {
		return 0
	}

	// DEM sweep: exchange counts with the partner across each
	// dimension; the heavier side ships half the difference.
	cur := w
	for k := 0; k < cs.cube.Dim(); k++ {
		p := cs.id ^ (1 << k)
		n.SendTag(p, tagScanW, cur, 8)
		pw := n.RecvFrom(p, tagScanW).Data.(int)
		switch {
		case cur > pw+1:
			give := (cur - pw) / 2
			bundle := st.takeTasks(give)
			n.SendTag(p, tagDown, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
			cur -= give
		case pw > cur+1:
			take := (pw - cur) / 2
			st.acceptTasks(n.RecvFrom(p, tagDown).Data.(horzMsg).tasks)
			cur += take
		}
	}

	// DEM only converges to within the cube dimension, so no Theorem 1
	// check applies; conservation of the per-node bookkeeping does.
	invariant.Conserved(st.rts.Len()+len(st.inbox), cur, "ripsrt: cube DEM system phase")
	st.rte.PushAll(st.rts.Drain())
	st.rte.PushAll(st.inbox)
	st.inbox = nil
	return total
}
