package par

import (
	"fmt"

	"rips/internal/sched"
	"rips/internal/sched/cubewalk"
	"rips/internal/sched/mwa"
	"rips/internal/sched/treewalk"
	"rips/internal/topo"
)

// PlanLoads runs the exact walking algorithm of the machine topology
// (MWA on meshes, the tree walk on trees, the cube walk on hypercubes)
// over a load snapshot, returning the feasible move list and the
// global task total. These are the same pure planners the simulator's
// message-passing system phases are cross-validated against, so the
// real-parallel backend and the simulator compute identical schedules
// from identical loads; a cluster coordinator plans over its member
// processes through it too.
func PlanLoads(t topo.Topology, w []int) (sched.Plan, int, error) {
	switch tt := t.(type) {
	case *topo.Mesh:
		r, err := mwa.Plan(tt, w)
		return r.Plan, r.Total, err
	case *topo.Tree:
		r, err := treewalk.Plan(tt, w)
		return r.Plan, r.Total, err
	case *topo.Hypercube:
		r, err := cubewalk.Plan(tt, w)
		return r.Plan, r.Total, err
	default:
		return sched.Plan{}, 0, fmt.Errorf("par: no planner for %s", t.Name())
	}
}
