package ripsrt

import (
	"rips/internal/invariant"
	"rips/internal/sim"
	"rips/internal/task"
	"rips/internal/topo"
)

// systemPhase runs one system phase with the machine's scheduler.
func (st *nodeState) systemPhase() int { return st.sched.phase(st) }

// newPhaseScheduler picks the scheduling algorithm matching the
// machine topology.
func newPhaseScheduler(t topo.Topology, id int, exactCube bool) phaseScheduler {
	switch tt := t.(type) {
	case *topo.Mesh:
		return newMeshSched(tt, id)
	case *topo.Tree:
		return newTreeSched(tt, id)
	case *topo.Hypercube:
		if exactCube {
			return newCubeWalkSched(tt, id)
		}
		return newCubeSched(tt, id)
	default:
		invariant.Violated("ripsrt: no system-phase scheduler for %s", t.Name())
		return nil
	}
}

// phaseScheduler is the distributed scheduling algorithm run by every
// node during a system phase. Implementations exist for the mesh (the
// paper's Mesh Walking Algorithm), the binary tree (the Tree Walking
// Algorithm of ref [25]) and the hypercube (incremental Dimension
// Exchange) — the generality the paper claims via ref [32].
type phaseScheduler interface {
	// phase cooperatively reschedules all tasks in st.rts across the
	// machine and returns the global task total T.
	phase(st *nodeState) int
}

// meshSched is the message-passing Mesh Walking Algorithm (Figure 3).
type meshSched struct {
	mesh *topo.Mesh
	i, j int
}

func newMeshSched(m *topo.Mesh, id int) *meshSched {
	i, j := m.Coord(id)
	return &meshSched{mesh: m, i: i, j: j}
}

// phase runs one message-passing round of the Mesh Walking Algorithm
// across all nodes, returning the global task total T. Every node must
// enter it; the per-link messages below realize exactly the data flow
// of the pure algorithm in internal/sched/mwa, against which this
// implementation is cross-validated in tests.
func (ms *meshSched) phase(st *nodeState) int {
	n := st.n
	mesh := ms.mesh
	n1, n2 := mesh.Rows(), mesh.Cols()
	i, j := ms.i, ms.j
	st.overhead(costPerPhase)

	// All tasks become schedulable: leftover RTE tasks are re-scheduled
	// together with the newly generated ones (paper Section 2).
	st.rts.PushAll(st.rte.Drain())
	w := st.rts.Len()
	st.ownTaken = 0

	// Step 1: scan the partial load vector along each row. Node (i,j)
	// ends up holding w_{i,0..j}.
	var wvec []int
	if j == 0 {
		wvec = []int{w}
	} else {
		m := n.RecvFrom(mesh.ID(i, j-1), tagScanW)
		prev := m.Data.(scanWMsg).w
		wvec = make([]int, 0, j+1)
		wvec = append(wvec, prev...)
		wvec = append(wvec, w)
	}
	if j < n2-1 {
		n.SendTag(mesh.ID(i, j+1), tagScanW, scanWMsg{w: wvec}, 8*len(wvec)+8)
	}
	st.overhead(costPerElem * sim.Time(len(wvec)))

	// Step 2: rightmost column computes row sums s_i and the
	// scan-with-sum t_i; node (n1-1, n2-1) derives wavg and R and
	// broadcasts them; (s_i, t_i, t_{i-1}) spread along each row.
	var s, t, tPrev int
	if j == n2-1 {
		for _, x := range wvec {
			s += x
		}
		if i > 0 {
			tPrev = n.RecvFrom(mesh.ID(i-1, j), tagColT).Data.(int)
		}
		t = tPrev + s
		if i < n1-1 {
			n.SendTag(mesh.ID(i+1, j), tagColT, t, 8)
		}
	}
	var bc bcastMsg
	if n.ID() == n.N()-1 {
		bc = bcastMsg{avg: t / n.N(), rem: t % n.N(), total: t}
	}
	bc = st.comm.Bcast(n.N()-1, bc, 24).(bcastMsg)
	if j == n2-1 {
		if j > 0 {
			n.SendTag(mesh.ID(i, j-1), tagSpread, spreadMsg{s: s, t: t, tPrev: tPrev}, 24)
		}
	} else {
		sp := n.RecvFrom(mesh.ID(i, j+1), tagSpread).Data.(spreadMsg)
		s, t, tPrev = sp.s, sp.t, sp.tPrev
		if j > 0 {
			n.SendTag(mesh.ID(i, j-1), tagSpread, sp, 24)
		}
	}

	st.phase++
	if bc.total == 0 {
		return 0
	}

	// Step 3: per-node quotas for this row's prefix, and the row
	// accumulation quotas Q_i, Q_{i-1}.
	qrow := make([]int, j+1)
	for k := 0; k <= j; k++ {
		qrow[k] = bc.avg
		if mesh.ID(i, k) < bc.rem {
			qrow[k]++
		}
	}
	y := t - ms.rowQuota(i, bc)
	x := 0
	if i > 0 {
		x = tPrev - ms.rowQuota(i-1, bc)
	}
	st.overhead(costPerElem * sim.Time(j+1))

	// Step 4: vertical balancing. Downward direction first (receive
	// from above, then send down), then upward — mirroring the pure
	// algorithm's two passes.
	if x > 0 {
		vm := n.RecvFrom(mesh.ID(i-1, j), tagDown).Data.(vertMsg)
		st.acceptTasks(vm.tasks)
		for k := 0; k <= j; k++ {
			wvec[k] += vm.vec[k]
		}
	}
	if y > 0 {
		d := st.exportVector(wvec, qrow, y)
		bundle := st.takeTasks(d[j])
		n.SendTag(mesh.ID(i+1, j), tagDown, vertMsg{tasks: bundle, vec: d}, sizeOfTasks(bundle)+8*len(d))
		for k := 0; k <= j; k++ {
			wvec[k] -= d[k]
		}
	}
	if y < 0 {
		vm := n.RecvFrom(mesh.ID(i+1, j), tagUp).Data.(vertMsg)
		st.acceptTasks(vm.tasks)
		for k := 0; k <= j; k++ {
			wvec[k] += vm.vec[k]
		}
	}
	if x < 0 {
		u := st.exportVector(wvec, qrow, -x)
		bundle := st.takeTasks(u[j])
		n.SendTag(mesh.ID(i-1, j), tagUp, vertMsg{tasks: bundle, vec: u}, sizeOfTasks(bundle)+8*len(u))
		for k := 0; k <= j; k++ {
			wvec[k] -= u[k]
		}
	}

	// Step 5: horizontal balancing within the row. The boundary right
	// of column j carries v rightward (or -v leftward).
	z := 0
	for k := 0; k < j; k++ {
		z += wvec[k] - qrow[k]
	}
	v := z + wvec[j] - qrow[j]
	st.overhead(costPerElem * sim.Time(j+1))
	if z > 0 {
		hm := n.RecvFrom(mesh.ID(i, j-1), tagRight).Data.(horzMsg)
		st.acceptTasks(hm.tasks)
	}
	if v > 0 {
		bundle := st.takeTasks(v)
		n.SendTag(mesh.ID(i, j+1), tagRight, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
	}
	if v < 0 {
		hm := n.RecvFrom(mesh.ID(i, j+1), tagLeft).Data.(horzMsg)
		st.acceptTasks(hm.tasks)
	}
	if z < 0 {
		bundle := st.takeTasks(-z)
		n.SendTag(mesh.ID(i, j-1), tagLeft, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
	}

	// The schedule is complete: this node must hold exactly its quota
	// (Theorem 1), and it must not have exported more resident tasks
	// than its surplus (Theorem 2). Anything else is a protocol bug,
	// not a runtime condition.
	got := st.rts.Len() + len(st.inbox)
	invariant.BalancedWithinOne(got, bc.total, n.N(), n.ID(), "ripsrt: mesh system phase")
	invariant.Locality(st.ownTaken, w-qrow[j], "ripsrt: mesh system phase")
	st.rte.PushAll(st.rts.Drain())
	st.rte.PushAll(st.inbox)
	st.inbox = nil
	return bc.total
}

// rowQuota returns Q_i, the accumulated quota of rows 0..i.
func (ms *meshSched) rowQuota(i int, bc bcastMsg) int {
	n2 := ms.mesh.Cols()
	r := (i + 1) * n2
	if r > bc.rem {
		r = bc.rem
	}
	return bc.avg*n2*(i+1) + r
}

// exportVector runs Figure 3's delta/eta/gamma recurrence over this
// node's row prefix, returning how many tasks each column k <= j
// contributes to the row's vertical export of y tasks.
func (st *nodeState) exportVector(wvec, qrow []int, y int) []int {
	d := make([]int, len(wvec))
	eta, gamma := y, 0
	for k := range wvec {
		delta := wvec[k] - qrow[k]
		switch {
		case delta > eta+gamma:
			d[k] = eta
		case delta > gamma:
			d[k] = delta - gamma
		}
		gamma -= delta - d[k]
		eta -= d[k]
	}
	st.overhead(costPerElem * sim.Time(len(wvec)))
	return d
}

// takeTasks removes count tasks for migration, preferring tasks that
// arrived earlier in this same system phase (forwarding in-transit
// tasks keeps resident ones home — the locality argument of Theorem 2).
func (st *nodeState) takeTasks(count int) []task.Task {
	if count < 0 {
		invariant.Violated("ripsrt: takeTasks(%d)", count)
	}
	out := make([]task.Task, 0, count)
	for count > 0 && len(st.inbox) > 0 {
		out = append(out, st.inbox[len(st.inbox)-1])
		st.inbox = st.inbox[:len(st.inbox)-1]
		count--
	}
	if count > 0 {
		own := st.rts.TakeBack(count)
		if len(own) != count {
			invariant.Violated("ripsrt: node %d short %d tasks for migration", st.n.ID(), count-len(own))
		}
		st.ownTaken += len(own)
		out = append(out, own...)
	}
	st.n.Count(CounterMigrated, int64(len(out)))
	st.overhead(costPerTask * sim.Time(len(out)))
	return out
}

// acceptTasks files tasks received during the system phase.
func (st *nodeState) acceptTasks(ts []task.Task) {
	st.inbox = append(st.inbox, ts...)
	st.overhead(costPerTask * sim.Time(len(ts)))
}
