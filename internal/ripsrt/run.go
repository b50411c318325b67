package ripsrt

import (
	"errors"
	"fmt"

	"rips/internal/app"
	"rips/internal/collective"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/sim"
	"rips/internal/task"
)

// Counter names exported in Result.Sim.Counters.
const (
	CounterGenerated = "rips.generated" // tasks created (roots + children)
	CounterExecuted  = "rips.executed"  // tasks executed
	CounterNonlocal  = "rips.nonlocal"  // tasks executed away from their origin
	CounterMigrated  = "rips.migrated"  // task·link transfers in system phases
	CounterPhases    = "rips.phases"    // system phases (counted once, at node 0)
	CounterAppResult = "rips.appresult" // aggregated app.Counted contributions
)

// Result of a RIPS run.
type Result struct {
	// Sim carries the raw simulation outcome (per-node clocks,
	// message counts, counters).
	Sim sim.Result
	// Time is the parallel execution time T.
	Time sim.Time
	// Overhead and Idle are the per-node averages of system overhead
	// Th and idle time Ti (the paper's Table I columns).
	Overhead, Idle sim.Time
	// Task accounting (see the Counter* names).
	Generated, Executed, Nonlocal, Migrated int64
	// Phases is the number of system phases executed.
	Phases int64
	// AppResult is the aggregated application result of Counted apps
	// (e.g. solutions found); 0 for apps without result counting.
	AppResult int64
	// VirtualWork is the summed virtual compute time reported by
	// Execute across all nodes. It must equal the sequential profile's
	// Work for any machine and policy — the same cross-backend
	// identity internal/par.Result.VirtualWork is checked against.
	VirtualWork sim.Time
	// PhaseTotals is the global task total T observed by each system
	// phase in order — the expansion/collapse curve of the workload
	// (the final entries are the zero-total phases that detect round
	// boundaries and termination).
	PhaseTotals []int
	// Canceled reports that the run was aborted through Config.Cancel.
	// All other fields then describe only the work completed before the
	// abort, and Executed may be less than Generated.
	Canceled bool
}

// Run executes the workload under RIPS on the configured mesh.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	simCfg := sim.Config{
		Topo:      cfg.Topo,
		Latency:   cfg.latency(),
		Seed:      cfg.Seed,
		MaxEvents: cfg.MaxEvents,
		Cancel:    cfg.Cancel,
	}
	var phaseTotals []int
	sr, err := sim.Run(simCfg, func(n *sim.Node) { nodeMain(n, &cfg, &phaseTotals) })
	if err != nil && !errors.Is(err, sim.ErrCanceled) {
		return Result{}, err
	}
	res := Result{
		Sim:       sr,
		Time:      sr.End,
		Generated: sr.Counters[CounterGenerated],
		Executed:  sr.Counters[CounterExecuted],
		Nonlocal:  sr.Counters[CounterNonlocal],
		Migrated:  sr.Counters[CounterMigrated],
		Phases:    sr.Counters[CounterPhases],
		AppResult: sr.Counters[CounterAppResult],
	}
	res.PhaseTotals = phaseTotals
	if err != nil {
		// Canceled: assemble what the run did accomplish, but skip the
		// conservation and locality invariants — the abandoned tasks are
		// a consequence of the abort, not a scheduler bug.
		res.Canceled = true
		var oh, idle sim.Time
		for _, st := range sr.Nodes {
			oh += st.Overhead
			res.VirtualWork += st.Busy
			idle += st.Idle + (sr.End - st.Finish)
		}
		n := sim.Time(cfg.Topo.Size())
		res.Overhead, res.Idle = oh/n, idle/n
		return res, err
	}
	n := int64(cfg.Topo.Size())
	var oh, idle sim.Time
	for _, st := range sr.Nodes {
		oh += st.Overhead
		// Node busy time is exactly the virtual compute charged by
		// Execute (Node.Compute), so the sum is the run's virtual work.
		res.VirtualWork += st.Busy
		// Everything between a node's finish and the end of the run is
		// waiting on others: count it as idle, like the node-local idle.
		idle += st.Idle + (sr.End - st.Finish)
	}
	res.Overhead = oh / sim.Time(n)
	res.Idle = idle / sim.Time(n)
	// Run-level invariants: every nonlocally executed task crossed at
	// least one link, and a terminated run must have executed exactly
	// what it generated (task conservation across all system phases —
	// also surfaced as an error below for gated builds).
	invariant.Check(res.Nonlocal <= res.Migrated,
		"ripsrt: %d nonlocal executions but only %d task migrations", res.Nonlocal, res.Migrated)
	invariant.Conserved(int(res.Generated), int(res.Executed), "ripsrt: run")
	if res.Executed != res.Generated {
		return res, fmt.Errorf("ripsrt: executed %d of %d generated tasks", res.Executed, res.Generated)
	}
	return res, nil
}

// nodeState is the per-node runtime state.
type nodeState struct {
	n     *sim.Node
	cfg   *Config
	sched phaseScheduler
	rte   task.Queue  // ready to execute
	rts   task.Queue  // ready to schedule (eager) / staging (system phase)
	inbox []task.Task // tasks received during the current system phase
	// ownTaken counts this node's resident tasks exported during the
	// current system phase (reset at phase start); the Theorem 2
	// locality invariant bounds it by the node's surplus over quota.
	ownTaken int
	phase    int // completed system phases
	round    int
	seq      uint64
	comm     *collective.Comm
	// periodic detector
	nextCheck sim.Time
}

// nodeMain roots the hotpath map-iteration proof for the simulated
// backend: everything a node program reaches must iterate no map (the
// simulator allocates and blocks by design, so only the determinism
// criterion applies here).
//
//ripslint:hotpath map
func nodeMain(n *sim.Node, cfg *Config, phaseTotals *[]int) {
	st := &nodeState{
		n:     n,
		cfg:   cfg,
		sched: newPhaseScheduler(cfg.Topo, n.ID(), cfg.ExactCube),
		comm:  &collective.Comm{Node: n, TagBase: tagColl},
	}
	st.nextCheck = cfg.Period
	st.loadRoots(0)
	for {
		total := st.systemPhase()
		if n.ID() == 0 {
			n.Count(CounterPhases, 1)
			// Only node 0 appends, and node programs run one at a
			// time, so this is race-free.
			*phaseTotals = append(*phaseTotals, total)
			if cfg.OnPhase != nil {
				// Moved is not globally observable at a single node of
				// the message-passing protocol; only the run total is.
				cfg.OnPhase(metrics.PhaseInfo{
					Phase:       int64(len(*phaseTotals)),
					Round:       st.round,
					Tasks:       total,
					VirtualTime: n.Now(),
				})
			}
		}
		if total == 0 {
			st.round++
			if st.round >= cfg.App.Rounds() {
				return
			}
			st.loadRoots(st.round)
			continue
		}
		st.userPhase()
	}
}

func (st *nodeState) overhead(d sim.Time) { st.n.Overhead(d) }

func (st *nodeState) newID() uint64 {
	st.seq++
	return uint64(st.n.ID())<<40 | st.seq
}

// loadRoots stages this node's share of a round's root tasks (the
// paper's "initial tasks", scheduled by the first system phase). Apps
// without BlockDistributed start entirely at node 0; block-distributed
// apps (GROMOS) start with each node owning its slice.
func (st *nodeState) loadRoots(round int) {
	roots := st.cfg.App.Roots(round)
	lo, hi := 0, len(roots)
	if app.RootsDistributed(st.cfg.App) {
		lo, hi = app.RootBlock(len(roots), st.n.N(), st.n.ID())
	} else if st.n.ID() != 0 {
		return
	}
	for _, sp := range roots[lo:hi] {
		st.rts.PushBack(task.Task{ID: st.newID(), Origin: st.n.ID(), Size: sp.Size, Data: sp.Payload()})
	}
	st.n.Count(CounterGenerated, int64(hi-lo))
	st.overhead(sim.Time(hi-lo) * costPerEnqueue)
}

// execute runs one task and files its children per the local policy.
func (st *nodeState) execute(tk task.Task) {
	n := st.n
	if tk.Origin != n.ID() {
		n.Count(CounterNonlocal, 1)
	}
	n.Count(CounterExecuted, 1)
	var children []task.Task
	work, res := app.ExecuteCount(st.cfg.App, tk.Data, func(sp app.Spawn) {
		children = append(children, task.Task{ID: st.newID(), Origin: n.ID(), Size: sp.Size, Data: sp.Payload()})
	})
	if res != 0 {
		n.Count(CounterAppResult, res)
	}
	n.Compute(work)
	if len(children) > 0 {
		st.overhead(sim.Time(len(children)) * costPerEnqueue)
		n.Count(CounterGenerated, int64(len(children)))
		if st.cfg.Local == Eager {
			st.rts.PushAll(children)
		} else {
			st.rte.PushAll(children)
		}
	}
}

// userPhase dispatches on the configured detector and global policy.
func (st *nodeState) userPhase() {
	st.overhead(costPerPhase)
	switch {
	case st.cfg.Detector == Periodic:
		st.userPhasePeriodic()
	case st.cfg.Global == All:
		st.userPhaseAll()
	default:
		st.userPhaseAny()
	}
}

// userPhaseAny implements the ANY policy: the first node to drain its
// RTE queue broadcasts an init signal carrying the phase index;
// duplicate inits for the same phase are dropped. A node holding tasks
// executes at least one before honouring an init, which both matches
// the paper ("the idle processor must wait until every processor
// finishes the current task execution") and guarantees progress.
func (st *nodeState) userPhaseAny() {
	n := st.n
	executed := false
	initSeen := false
	for {
		for {
			m, ok := n.TryRecvTag(tagInit)
			if !ok {
				break
			}
			initSeen = st.handleInit(m, initSeen)
		}
		if initSeen && (executed || st.rte.Empty()) {
			return
		}
		if tk, ok := st.rte.PopFront(); ok {
			st.execute(tk)
			executed = true
			continue
		}
		// Local condition met and no init seen: back off briefly (with
		// an id-proportional jitter so the lowest drained node usually
		// initiates alone), then become the initiator.
		jitter := st.cfg.initBackoff() / 4 * sim.Time(n.ID()) / sim.Time(n.N())
		deadline := n.Now() + st.cfg.initBackoff() + jitter
		for n.Now() < deadline {
			m, ok := n.RecvTagTimeout(tagInit, deadline-n.Now())
			if !ok {
				break
			}
			if st.handleInit(m, false) {
				return // someone else initiated this phase (relayed above)
			}
		}
		st.overhead(costPerPhase)
		st.relayInit(initMsg{phase: st.phase, root: n.ID()})
		return
	}
}

// handleInit processes one tagInit message under the ANY policy: the
// first copy for the current phase is relayed down the initiator's
// broadcast tree; older phases' copies are redundant and dropped.
// Returns the updated initSeen.
func (st *nodeState) handleInit(m sim.Message, initSeen bool) bool {
	im := m.Data.(initMsg)
	if im.phase != st.phase {
		return initSeen
	}
	if !initSeen {
		st.relayInit(im)
	}
	return true
}

// relayInit forwards an init announcement to this node's children in
// the binomial broadcast tree rooted at the initiator, giving O(log N)
// propagation with no O(N) hotspot at the initiator. (The paper notes
// hardware support — the Cray T3D's eureka or-barrier — as the ideal
// implementation; a software combining tree is the portable one.)
func (st *nodeState) relayInit(im initMsg) {
	n := st.n
	if st.cfg.Eureka {
		// Hardware or-barrier: only the initiator signals; there is
		// nothing to relay.
		if im.root == n.ID() {
			n.Broadcast(tagInit, im, 16, eurekaLatency)
		}
		return
	}
	size := n.N()
	rel := (n.ID() - im.root + size) % size
	low := rel & (-rel)
	if rel == 0 {
		low = 0
	}
	for bit := 1; rel+bit < size; bit <<= 1 {
		if low != 0 && bit >= low {
			break
		}
		n.SendTag((rel+bit+im.root)%size, tagInit, im, 16)
	}
}

// allTreeChildren returns this node's children in the fixed binary
// reduction tree rooted at node 0 used by the ALL policy.
func (st *nodeState) allTreeChildren() []int {
	var out []int
	if c := 2*st.n.ID() + 1; c < st.n.N() {
		out = append(out, c)
	}
	if c := 2*st.n.ID() + 2; c < st.n.N() {
		out = append(out, c)
	}
	return out
}

// userPhaseAll implements the ALL policy: a node sends a ready signal
// to its tree parent once its own RTE queue is empty and a ready has
// arrived from each child; when the root completes, it broadcasts init
// down the same tree.
func (st *nodeState) userPhaseAll() {
	n := st.n
	children := st.allTreeChildren()
	childReady := 0
	readySent := false
	for {
		for {
			m, ok := n.TryRecvTag(tagReady)
			if !ok {
				break
			}
			if m.Data.(int) == st.phase {
				childReady++
			}
		}
		if tk, ok := st.rte.PopFront(); ok {
			st.execute(tk)
			continue
		}
		if childReady == len(children) && !readySent {
			readySent = true
			if n.ID() == 0 {
				// Global ALL condition reached at the root.
				for _, c := range children {
					n.SendTag(c, tagInit, initMsg{phase: st.phase}, 16)
				}
				return
			}
			n.SendTag((n.ID()-1)/2, tagReady, st.phase, 8)
		}
		// Idle until a ready or the init arrives. Other traffic (a fast
		// neighbour's early system-phase messages) stays queued.
		m := n.RecvTags(tagReady, tagInit)
		switch m.Tag {
		case tagReady:
			if m.Data.(int) == st.phase {
				childReady++
			}
		case tagInit:
			if m.Data.(initMsg).phase == st.phase {
				for _, c := range children {
					n.SendTag(c, tagInit, initMsg{phase: st.phase}, 16)
				}
				return
			}
		default:
			invariant.Violated("ripsrt: unexpected tag %d in ALL user phase", m.Tag)
		}
	}
}

// userPhasePeriodic implements the naive detector: a global reduction
// every Period tests the transfer condition. Every node participates
// in every check instance in order (the reduction is a rendezvous, so
// instances pair up across nodes); the check clock restarts at each
// user phase so that time spent in system phases does not leave a
// backlog of permanently-due checks — that backlog would let a true
// condition preempt every task execution and livelock the endgame.
func (st *nodeState) userPhasePeriodic() {
	n := st.n
	st.nextCheck = n.Now() + st.cfg.Period
	for {
		for n.Now() >= st.nextCheck {
			if st.runCheck() {
				return
			}
		}
		if tk, ok := st.rte.PopFront(); ok {
			st.execute(tk)
			continue
		}
		n.Sleep(st.nextCheck - n.Now())
	}
}

// runCheck performs one periodic reduction; true means transfer.
func (st *nodeState) runCheck() bool {
	st.nextCheck += st.cfg.Period
	var ready int64
	if st.rte.Empty() {
		ready = 1
	}
	st.overhead(costPerElem * 8)
	if st.cfg.Global == All {
		return st.comm.AllReduce(ready, collective.Sum) == int64(st.n.N())
	}
	return st.comm.AllReduce(ready, collective.Max) == 1
}
