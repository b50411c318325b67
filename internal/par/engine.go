//ripslint:allow-file wallclock the real-parallel backend measures actual elapsed time by design; scheduling decisions depend only on task counts, never on the clock

package par

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/reuse"
	"rips/internal/ripsrt"
	"rips/internal/sched"
	"rips/internal/topo"
)

// This file is the one phase engine behind all three strategies: the
// paper's system-phase protocol (stop at the epoch barrier, snapshot,
// plan with the walking algorithm, apply, resume) over affinity
// domains, with Chase-Lev work stealing inside each domain. Workers are
// partitioned into contiguous domain blocks; during user phases an idle
// worker steals only from its domain-mates, and in a system phase the
// leader snapshots per-DOMAIN load sums, plans over the domain-level
// machine with the unchanged walking algorithms, and applies the plan
// itself by moving tasks between domains' deques. Imbalance inside a
// domain needs no planning: the deques absorb it continuously.
//
// Hybrid is the general case: the domains are the machine's NUMA nodes
// (or Config.Domains), workers pin to them, and the planner sees a
// mirror of the machine's topology family at domain granularity.
//
// RIPS is the engine at one-worker domains: nobody to steal from, the
// planner sees Config.Topo itself, nothing is pinned. A worker without
// domain-mates pops its OLDEST task and exports its NEWEST (see
// engineWorker.fifo) — the one difference from the stealing domains
// that turned out to be essential.
//
// Steal is the engine at one domain: the victims are the whole machine,
// so there is never anything to plan, and the detector never times out,
// so the barrier is crossed only when the worker completing the drained
// count asks for it — at a round boundary, or one crossing early when
// that count was read stale (see detector.drained). The barrier's
// zero-total snapshot, taken with the world stopped, is what advances
// the round and ends the run; a task in a deque or in a thief's hand
// can therefore never be left behind. A Steal run reports none of this
// as phases: to its caller a crossing is a round barrier.
//
// A member of a multi-process run (member.go) is the engine at one
// domain whose system phases are served from outside: the stopped world
// is handed to an exchange that trades tasks with the other members,
// planned by whoever coordinates them.

// node is one task of the engine: what the deques, the system phase's
// scratch and a thief's hand point at. The payload is data, or the
// inline words w when data is nil (app.Spawn's contract). A node is one
// cache line and is reused for as long as the run lasts, and by the runs
// after it (see kit):
//
//	kit -> slab -> hand -> free list -> kids -> deque -> hand ... -> kit
//
// execute takes a node in hand, copies its payload out and threads it
// onto the executing worker's free list before the task body runs; emit
// pops the free list for each child; release pushes the children. A
// node is written only by the worker that holds it — popped it, won the
// top CAS for it, or took it from its own free list — and a deque slot
// or a thief that lost the CAS may keep a stale pointer to it for ever
// without harm, because nothing dereferences a pointer it did not win:
// deque.steal reads the slot and the claim for index i succeeds only
// while top is still i, top never decreases, and index i holds the same
// node from its push until top passes it. The bulk takes of a system
// phase run with the world stopped.
type node struct {
	id     uint64
	origin int // home of the worker that emitted it
	w      app.Words
	data   any
	next   *node // free-list link; meaningless anywhere else
}

// slabSize is the number of nodes a worker carves from one slab when its
// free list is empty. Nodes are never returned within a run: it draws
// slabs — from its kit, then from the allocator — until every worker's
// free list covers its own demand and then stops, however many tasks
// follow.
const slabSize = 256

// kit is everything a run buys whose size is the run's high-water mark
// and whose content is dead when the run ends: the slabs its nodes are
// carved from, each worker's deque ring at the size it grew to, and the
// scratch a system phase's moves pass through. A run takes the most
// recently retired kit when it starts (run) and uses it up before it
// allocates; when it has run to completion it adds what it bought and
// hands the kit on (retire). A warm process therefore runs a
// job without buying memory, and what it holds between jobs is what the
// jobs since the collector's last cycle used: idle kits are held weakly
// (reuse.List), so one that no run takes is freed like any garbage.
//
// There is one kit per run and not one per worker: nodes retire where
// they were executed, so a worker's private kit would grow to the largest
// share any worker ever held, and the kits would sum to a multiple of the
// frontier.
//
// Nothing in a kit refers to anything outside it. A node at rest has no
// payload (execute, Stopped.Take), and the stale pointers a ring slot, a
// free-list link or the scratch may hold are to nodes of the kit's own
// slabs, which never leave it. They are harmless to the next run for the
// reason they are harmless within one: a recycled ring starts over at
// top = bottom = 0 in a new deque, which reads no slot outside
// [top, bottom), a recycled node is written by emit before anything
// reads it, and the workers of the run that left them — its thieves
// included — have returned before the kit is handed on.
type kit struct {
	slabs [][]node
	// drawn counts the slabs the run holding the kit has asked for; the
	// first len(slabs) requests are served from slabs, which nobody
	// modifies while the workers run.
	drawn atomic.Int64
	rings []*dequeRing // rings[i] was last worker i's
	xfer  []*node
}

// kits are the idle kits of the process, for every kind of run alike: a
// one-worker member may take what a four-worker Hybrid run left.
var kits reuse.List[kit]

// engineWorker is one worker's private state: a Chase-Lev deque the
// workers of its domain may steal from, the free list and slab its task
// nodes come from, and the list of nodes not yet pushed.
type engineWorker struct {
	counters
	// yieldAt is the busy time at which the worker next gives up its
	// processor: never, outside member mode (see yieldSlice). It sits
	// with the counters execute writes anyway, away from the end of the
	// struct: the next worker's struct may begin on the same cache line.
	yieldAt time.Duration
	id      int
	dom     int // index into engineRun.doms: whom it steals from and balances with
	// home is what this worker's tasks carry as their origin, and a task
	// of another home counts as nonlocal here: the worker itself, or in
	// member mode the member, so that a task is nonlocal when it crossed
	// the wire. rank is the worker's slice of the task-id space, unique
	// across the members of a run.
	home, rank int
	// class is the domain its steals are accounted to in the Result: dom
	// under Hybrid, the Config.Domains classification under Steal (whose
	// single engine domain is the whole machine).
	class int
	// fifo is set on a worker that has no domain-mates and is balanced by
	// count (every RIPS worker; a Hybrid worker alone in its domain). It
	// takes its own tasks from the top of its deque, oldest first, and a
	// system phase exports from the bottom, newest first. Popping newest
	// first keeps a deque a few tasks deep however much work hangs below
	// them, so a count snapshot says nothing and the planner moves almost
	// nothing (par_fine at W = 2: 168 phases migrating 608 tasks, against
	// 24 migrating 10 585); oldest first, the count tracks the work left.
	// Workers with mates keep depth-first order: stealing, not the count,
	// balances them. Derived from the run, never configured.
	fifo bool
	d    *deque
	// free lists the nodes of the tasks this worker has executed, most
	// recent first, so a task's first child is written into the line its
	// parent was just read from. A node retires where it was executed, not
	// where it was carved: a worker that executes more than it emits
	// accumulates nodes another worker has to carve afresh.
	free *node
	// slab is the chunk nodes are carved from while free is empty,
	// len(slab) of them so far. Only its owner appends (the phase leader
	// too, for roots, with the world stopped). A full chunk is let go of
	// here and lives on through its nodes, and in the kit or in bought:
	// the slabs this worker allocated because the kit had no more, which
	// join the kit when the run ends. carved counts the nodes.
	slab   []node
	bought [][]node
	carved int
	// scratch holds the inline payload of the task in hand: what Execute
	// sees as its *app.Words, so the node itself is free for reuse.
	scratch app.Words
	// kids are the nodes emitted but not yet in the deque, in emission
	// order: the children of the task in hand, and under the Eager local
	// policy everything staged since the last system phase. The array is
	// reused.
	kids []*node
	emit func(app.Spawn)
	// sweep is stealLocal bound to this worker once, so handing it to the
	// detector as its poll on every drain allocates nothing; rng rotates
	// the victims and never affects the answer. Both are nil on a worker
	// without mates, which has nobody to steal from.
	sweep  func() *node
	rng    *rand.Rand
	steals int64
	// xsteals counts steals whose victim is of another class: none under
	// Hybrid by construction, the cross-domain traffic under Steal.
	xsteals int64
}

func (w *engineWorker) newID() uint64 {
	w.seq++
	return packID(w.rank, w.seq)
}

// carve cuts a new node from w's slab. When that is used up the next one
// comes from the run's kit — one atomic add per slabSize nodes is all the
// workers share — and is bought once the kit has no more. Only w's owner
// calls it, or the phase leader with the world stopped.
func (r *engineRun) carve(w *engineWorker) *node {
	if len(w.slab) == cap(w.slab) {
		if i := int(r.kit.drawn.Add(1)) - 1; i < len(r.kit.slabs) {
			w.slab = r.kit.slabs[i][:0]
		} else {
			w.slab = w.buy() //ripslint:allow hotpath slab refill: only while the free list is empty and the kit used up, so a run stops buying slabs at its high-water mark and a warm process buys none (TestDequeExecutorAllocs, TestWarmRunBuysNothing pin it)
		}
	}
	w.carved++
	w.slab = w.slab[:len(w.slab)+1]
	return &w.slab[len(w.slab)-1]
}

// buy allocates a slab and lists it for the kit.
func (w *engineWorker) buy() []node {
	s := make([]node, 0, slabSize)
	w.bought = append(w.bought, s)
	return s
}

// release pushes the pending nodes onto the worker's own deque, where
// the owner pops them and thieves may take them. Owner only, or the
// phase leader with the world stopped.
func (w *engineWorker) release() {
	w.d.push(w.kids...)
	w.kids = w.kids[:0]
}

// engineDomain is one contiguous worker block [lo, hi) acting as a
// single node of the phase protocol.
type engineDomain struct {
	id     int
	lo, hi int
	// cpus is the affinity CPU set the domain's workers pin to; empty
	// under RIPS and Steal, and on machines without a visible multi-node
	// topology, where pinning to the whole machine would be a no-op
	// constraint.
	cpus     []int
	migrated int64 // tasks system phases exported from this domain
}

func (d *engineDomain) size() int { return d.hi - d.lo }

// engineRun is the shared state of one run. Loads and plans are indexed
// by domain, and nd (not n) bounds the planner's problem size.
type engineRun struct {
	cfg     *Config
	n, nd   int
	workers []*engineWorker
	doms    []*engineDomain
	dtopo   topo.Topology // the machine the planner sees, one node per domain
	bar     *epochBarrier

	// member is set on a member-mode run (member.go): one domain, no
	// planner, every system phase an exchange with the other members. xch
	// is the handle that exchange gets, one for the run.
	member *Member
	xch    Stopped

	// steal marks a Steal run: one domain, a detector without a timeout,
	// and a Result that reports no phases. eager and all are the transfer
	// policy, which Steal ignores (children go straight to the deque, and
	// only the drained count requests a barrier). classes is the number
	// of domains steals are broken down by in the Result: nd under
	// Hybrid, the resolved Config.Domains under Steal, zero without.
	steal, eager, all bool
	classes           int

	// beginFn is beginPhase bound once: passing a fresh method value to
	// await on every phase would allocate on the hot path.
	beginFn func()

	// cancel is the abort flag mirrored from Config.Cancel by a watcher
	// goroutine (see watchCancel); workers poll it between tasks and the
	// leader honours it at the next phase boundary, so the barrier itself
	// never wedges on a canceled run.
	cancel atomic.Bool
	// start anchors every clock read of the run: the Elapsed field of
	// OnPhase snapshots, and the busy time around a task as the
	// difference of two monotonic readings against it.
	start time.Time
	// pinned counts workers that successfully pinned to their domain's
	// CPUs; the remainder run unpinned by the fallback contract.
	pinned atomic.Int64

	// Phase state below is written only inside barrier callbacks (the
	// world is stopped) or read by workers between barriers; the
	// barrier's mutex hand-off orders every access.
	round      int
	done       bool
	stopped    bool // done because of cancellation, not completion
	err        error
	phases     int64
	migrated   int64
	sysTime    time.Duration
	phaseStart time.Time
	phaseTotal int // global task total snapshotted by the phase in flight
	phaseMoved int // tasks the phase in flight migrates (plan cost)

	// Bounded phase-total summary; Config.OnPhase delivers every phase's
	// total to whoever wants the trace.
	phaseSum int64
	phaseMax int

	// Reusable system-phase buffers (zero steady-state allocations):
	// loads is the snapshot and after the balance check's recount, nd
	// entries each; xfer is the scratch every move's tasks pass through
	// between take and push, grown to the largest single move and kept.
	loads []int
	after []int
	xfer  []*node

	// kit is where the slabs, the rings and xfer come from and go back to:
	// an empty one until run adopts the process's idle one, nil once the
	// run has ended (retire). nodes is the number of nodes the run carved,
	// recorded then.
	kit   *kit
	nodes int

	// det is the ANY transfer detector (see detector.go).
	det *detector
}

// newEngineRun builds the run state — domain partition, CPU mapping,
// planner topology, workers — without starting the workers; benchmarks
// and phase-level tests drive the returned run directly through
// phaseStep.
func newEngineRun(cfg *Config) *engineRun {
	n := cfg.Topo.Size()
	r := &engineRun{
		cfg:    cfg,
		n:      n,
		nd:     1,
		bar:    newEpochBarrier(n),
		member: cfg.member,
		start:  time.Now(),
		kit:    new(kit),
	}
	var cpus [][]int
	switch {
	case r.member != nil: // one stealing domain; the plan comes over the wire
		r.xch.r = r
	case cfg.Strategy == Steal:
		r.steal = true
		if cfg.Domains > 0 {
			r.classes = resolveDomains(cfg.Domains, n, false)
		}
	case cfg.Strategy == Hybrid:
		_, hypercube := cfg.Topo.(*topo.Hypercube)
		r.nd = resolveDomains(cfg.Domains, n, hypercube)
		r.classes = r.nd
		r.dtopo = MirrorTopology(cfg.Topo, r.nd)
		cpus = domainCPUs(r.nd)
	default: // RIPS: every worker its own domain, planned over the machine itself
		r.nd, r.dtopo = n, cfg.Topo
	}
	if !r.steal && r.member == nil {
		r.eager = cfg.Local == ripsrt.Eager
		r.all = cfg.Global == ripsrt.All
	}
	nd := r.nd
	r.loads = make([]int, nd)
	r.after = make([]int, nd)
	r.det = newDetector(cfg, n, &r.cancel)
	r.beginFn = r.beginPhase
	classOf := workerDomains(domainBlocks(n, max(r.classes, 1)), n)
	blocks := domainBlocks(n, nd)
	for d := 0; d < nd; d++ {
		dom := &engineDomain{id: d, lo: blocks[d][0], hi: blocks[d][1]}
		if cpus != nil {
			dom.cpus = cpus[d]
		}
		r.doms = append(r.doms, dom)
		mates := dom.size() > 1
		for i := dom.lo; i < dom.hi; i++ {
			w := &engineWorker{
				id:      i,
				dom:     d,
				home:    i,
				rank:    i,
				class:   classOf[i],
				fifo:    !mates && !r.steal,
				d:       newDeque(),
				yieldAt: noTimeout,
			}
			if m := r.member; m != nil {
				w.home, w.rank, w.yieldAt = m.Index, m.Index+m.Width*i, yieldSlice
			}
			// emit runs inside every task execution, called back by the
			// application: the traversal cannot follow that call, so it is
			// rooted explicitly. It writes the child into a node off the free
			// list, or a new one when that is empty, and lists the node;
			// pushing is execute's business, outside the busy time.
			//ripslint:hotpath
			w.emit = func(sp app.Spawn) {
				nd := w.free
				if nd != nil {
					w.free = nd.next
				} else {
					nd = r.carve(w)
				}
				nd.id, nd.origin, nd.w, nd.data = w.newID(), w.home, sp.W, sp.Data
				w.generated++
				w.kids = append(w.kids, nd) //ripslint:allow hotpath kids keeps its capacity across tasks and, under Eager, across phases; growth stops at the widest fan-out (TestDequeExecutorAllocs pins it)
			}
			if mates {
				w.rng = rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(i)))
				w.sweep = func() *node { return r.stealLocal(w) }
			}
			r.workers = append(r.workers, w)
		}
	}
	return r
}

// run stages the first round's roots and runs the workers on d to the
// end of the run, for any strategy.
func (r *engineRun) run(d driver) (Result, error) {
	r.adopt()
	r.loadRoots(0)
	if r.cfg.Cancel != nil {
		stop := watchCancel(r.cfg.Cancel, &r.cancel)
		defer stop()
	}

	start := time.Now()
	r.start = start
	d.dispatch(r.n, r.workerMain)
	wall := time.Since(start)
	r.retire()

	res := Result{Workers: r.n, Wall: wall, Domains: r.classes, Canceled: r.stopped}
	if !r.steal {
		res.Overhead = r.sysTime
		res.Migrated = r.migrated
		res.Phases = r.phases
		res.PhaseSum = r.phaseSum
		res.PhaseMax = r.phaseMax
	}
	if r.classes > 0 {
		res.DomainSteals = make([]int64, r.classes)
		if !r.steal {
			res.DomainMigrated = make([]int64, r.nd)
			for _, dom := range r.doms {
				res.DomainMigrated[dom.id] = dom.migrated
			}
		}
	}
	for _, w := range r.workers {
		res.Generated += w.generated
		res.Executed += w.executed
		res.Nonlocal += w.nonlocal
		res.AppResult += w.appResult
		res.VirtualWork += w.vwork
		res.Busy += w.busy
		res.Steals += w.steals
		res.CrossSteals += w.xsteals
		if r.classes > 0 {
			res.DomainSteals[w.class] += w.steals
		}
	}
	res.Idle = max(0, wall-res.Overhead-res.Busy/time.Duration(r.n))
	return res, r.err
}

// adopt replaces the empty kit the run was built with by the most
// recently retired one, if the process has one idle: the scratch, and a
// ring under every deque the kit has one for. It is run's first step and
// not newEngineRun's, so that a run that is built and never started —
// a member whose session dies first, a phase measurement — takes no
// kit it would not give back. The deques are empty and nobody operates
// on them yet.
func (r *engineRun) adopt() {
	k := kits.Get()
	if k == nil {
		return
	}
	k.drawn.Store(0)
	r.kit, r.xfer = k, k.xfer
	for i, w := range r.workers[:min(r.n, len(k.rings))] {
		w.d.buf.Store(k.rings[i])
	}
}

// retire ends the run's use of its kit, once the workers have returned.
// The kit takes the slabs the run bought, the rings as they are now and
// the scratch, and the run lets go of all of it — free lists, slabs,
// rings, pending lists — so that a finished run still referred to holds
// no node the next run is writing, and none of the application's payloads
// either. The kit is handed on only by a run that completed: the tasks a
// canceled run, a failed one or a member whose exchange gave up abandons
// in its deques carry payloads that are the application's to free, and a
// run that ended on an error has declared its own state inconsistent, so
// such a run's kit is dropped with it.
func (r *engineRun) retire() {
	k, left := r.kit, 0
	for len(k.rings) < r.n {
		k.rings = append(k.rings, nil)
	}
	for i, w := range r.workers {
		left += int(w.d.size())
		r.nodes += w.carved
		k.slabs = append(k.slabs, w.bought...)
		k.rings[i] = w.d.buf.Swap(nil)
		w.free, w.slab, w.bought, w.kids = nil, nil, nil, nil
	}
	k.xfer, r.xfer, r.kit = r.xfer, nil, nil
	if left == 0 && !r.stopped && r.err == nil {
		kits.Put(k)
	}
}

// loadRoots stages a round's root tasks: block-distributed apps start
// with each worker owning its slice, all others start on worker 0 and
// let the first system phase spread the work across domains (stealing
// spreads it within) — the paper's SPMD start. Called single-threaded
// before the workers start, or by the phase leader with the world
// stopped, when every worker's pending list is empty. A member stages
// its member's share only: its block of a block-distributed app's roots,
// and of any other app's everything on member 0, nothing elsewhere.
func (r *engineRun) loadRoots(round int) {
	roots := r.cfg.App.Roots(round)
	if m := r.member; m != nil {
		lo, hi := 0, len(roots)
		if app.RootsDistributed(r.cfg.App) {
			lo, hi = app.RootBlock(len(roots), m.Width, m.Index)
		} else if m.Index != 0 {
			hi = 0
		}
		roots = roots[lo:hi]
	}
	stage := func(w *engineWorker, roots []app.Spawn) {
		for _, sp := range roots {
			w.emit(sp)
		}
		w.release()
	}
	if !app.RootsDistributed(r.cfg.App) {
		stage(r.workers[0], roots)
		return
	}
	for i, w := range r.workers {
		lo, hi := app.RootBlock(len(roots), r.n, i)
		stage(w, roots[lo:hi])
	}
}

// workerMain is one worker's entry point. A worker of a domain with a
// CPU set first locks its OS thread and pins it there. A pinning
// failure is deliberately not an error: the worker runs unpinned — the
// protocol is correct either way, pinning only improves locality —
// which is the clean-fallback contract the affinity shim documents.
func (r *engineRun) workerMain(id int) {
	w := r.workers[id]
	if cpus := r.doms[w.dom].cpus; len(cpus) > 0 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if restore, err := affinityPin(cpus); err == nil {
			r.pinned.Add(1)
			defer restore()
		}
	}
	r.phaseLoop(w)
}

// phaseLoop is the worker's steady state: a system phase at every
// barrier epoch, then a user phase until the transfer condition fires.
//
//ripslint:hotpath
func (r *engineRun) phaseLoop(w *engineWorker) {
	var point int64
	for r.phaseStep(w, &point) {
		r.userPhase(w, r.phases-1, &point)
	}
}

// phaseStep runs one complete system phase from w's perspective and
// reports whether the run continues. A phase is exactly one crossing of
// the epoch barrier: every worker releases its own Eager-staged
// children into its deque (in parallel, before the world stops; nothing
// is pending under Lazy) — leftover tasks are rescheduled together with
// the staged ones (paper Section 2) — and the last arrival runs
// beginPhase with the world stopped: snapshot, round detection, plan,
// every move of the plan, invariants, detector adaptation, timing.
func (r *engineRun) phaseStep(w *engineWorker, point *int64) bool {
	// Schedule-perturbation point (no-op unless built with
	// -tags ripsperturb): jitter this worker's barrier arrival so
	// stress runs explore adversarial epoch interleavings.
	*point++
	perturb(w.id, *point)
	w.release()
	r.bar.await(r.beginFn)
	return !r.done // leader decision, ordered by the barrier
}

// userPhase executes tasks until this phase's transfer condition is
// met. Under ANY a worker holding tasks honours a transfer request only
// after finishing the task in hand — and executes at least one task if
// it has any, which guarantees global progress (every system phase is
// separated by at least one real execution somewhere). A worker that
// drains its own deque first tries to steal from its domain-mates, and
// only a drained DOMAIN takes part in transfer detection: it waits in
// the detector, which requests the transfer the moment every worker has
// drained, or after the detector interval while one is still busy — a
// wait that keeps a momentary drain during the initial fan-out from
// triggering a storm of nearly-empty phases. Under ALL there is nothing
// to signal: draining IS the local condition, and the epoch barrier
// completes exactly when every worker in every domain has drained. A
// Steal run is ANY with a detector that never times out: a drained
// worker sweeps the machine until it finds a task or the drained count
// completes.
func (r *engineRun) userPhase(w *engineWorker, phase int64, point *int64) {
	executed := false
	for {
		if r.cancel.Load() {
			return // abort: head straight for the phase barrier
		}
		if executed && !r.all && r.det.requested(phase) {
			return // someone requested the transfer; one task finished since
		}
		var t *node
		if w.fifo {
			t, _ = w.d.steal() // the owner is the deque's only taker, so the claim cannot fail
		} else {
			t = w.d.pop()
		}
		if t == nil {
			// Perturbation point (no-op unless -tags ripsperturb): jitter
			// the thief between its empty pop and the steal sweep, the
			// window where owner pushes race thieves.
			*point++
			perturb(w.id, *point)
			if t = r.stealLocal(w); t != nil {
				w.steals++
			}
		}
		if t == nil {
			if r.all || r.cancel.Load() {
				return // drained: the ALL local condition holds
			}
			// The detector re-sweeps the domain while it waits: mates may
			// make new work stealable, and a successful steal resumes the
			// user phase instead of requesting a transfer the domain does
			// not need.
			if t = r.det.await(w.id, phase, w.sweep); t == nil {
				return
			}
			w.steals++ // work appeared during the detector wait
		}
		r.execute(w, t)
		executed = true
	}
}

// stealLocal sweeps the other workers of this worker's domain once in
// random rotation, returning the first stolen task: O(n/D) deque
// probes, all on the domain's own node, under Hybrid; the whole machine
// under Steal, whose one domain it is; nothing under RIPS.
func (r *engineRun) stealLocal(w *engineWorker) *node {
	dom := r.doms[w.dom]
	n := dom.size()
	if n < 2 {
		return nil
	}
	off := w.rng.IntN(n) //ripslint:allow hotpath victim rotation on the worker's private source: arithmetic on its own state, no allocation, no lock
	for k := 0; k < n; k++ {
		v := r.workers[dom.lo+(off+k)%n]
		if v == w {
			continue
		}
		for {
			t, retry := v.d.steal()
			if t != nil {
				if v.class != w.class {
					w.xsteals++
				}
				return t
			}
			if !retry {
				break
			}
		}
	}
	return nil
}

// execute runs one task for real and files its children per the local
// policy. The node in hand is retired first (see node): the inline words
// move into the worker's scratch, which Execute sees as a *app.Words
// without an allocation, and data is cleared so a node at rest pins
// nothing of the application's. The bound emit closure lists each child
// in kids; Lazy (and Steal) then pushes the listed nodes onto the deque,
// Eager leaves them listed until the next system phase. The busy time is
// the task alone: two monotonic clock readings against the run's start
// (time.Now would read the wall clock too), with the pushes outside
// them. A member's worker then gives its processor up once per
// yieldSlice of busy time; yieldAt is never reached anywhere else.
func (r *engineRun) execute(w *engineWorker, t *node) {
	if t.origin != w.home {
		w.nonlocal++
	}
	w.executed++
	data := t.data
	if data == nil {
		w.scratch = t.w
		data = &w.scratch
	}
	t.data = nil
	t.next, w.free = w.free, t
	began := time.Since(r.start)
	vw, res := app.ExecuteCount(r.cfg.App, data, w.emit)
	w.busy += time.Since(r.start) - began
	w.vwork += vw
	w.appResult += res
	if !r.eager {
		w.release()
	}
	if w.busy >= w.yieldAt {
		w.yieldAt = w.busy + yieldSlice
		runtime.Gosched()
	}
}

// beginPhase runs with the world stopped (every worker parked in the
// epoch barrier, Eager stages already released): it snapshots the
// per-domain load sums, detects round boundaries (a zero global total:
// no task is in a thief's hand and the deque sizes are exact — the
// snapshot, not any count kept while workers run, is what ends a
// round), runs the pure walking algorithm over the planner's topology
// and applies the plan move by move in plan order — which is
// sequentially feasible: a move that forwards tasks finds them already
// landed — then closes the phase (finishPhase).
//
// It is a hot-path root of its own: the barrier invokes it through a
// pre-bound function value (r.beginFn), which the traversal cannot
// follow past the waived leader() call site in barrier.go.
//
//ripslint:hotpath
func (r *engineRun) beginPhase() {
	if r.cancel.Load() {
		// Abort, decided by the leader with the world stopped: every
		// worker is parked in this barrier, so setting done here is the
		// "barrier wakeup" — all of them observe it on release and exit
		// together. Nothing is planned or moved; the deques keep the
		// abandoned tasks.
		r.stopped = true
		r.done = true
		return
	}
	r.phaseStart = time.Now()
	if r.member != nil {
		r.exchangePhase()
		return
	}
	r.phaseMoved = 0

	total := 0
	for i := range r.loads {
		r.loads[i] = 0
	}
	for _, w := range r.workers {
		n := int(w.d.size())
		r.loads[w.dom] += n
		total += n
	}
	r.phaseTotal = total
	r.phases++
	r.phaseSum += int64(total)
	if total > r.phaseMax {
		r.phaseMax = total
	}

	if total == 0 {
		// Zero global total detects the round boundary, exactly like
		// the simulator runtime.
		r.round++
		//ripslint:allow hotpath round boundary (zero global total): one dispatch per round, outside the steady state
		if r.round >= r.cfg.App.Rounds() {
			r.done = true
			r.finishPhase()
			return
		}
		r.loadRoots(r.round) //ripslint:allow hotpath round boundary restaging allocates once per round, outside the steady state
		r.finishPhase()
		return
	}
	if r.nd == 1 || BalancedCanonical(r.loads, total) {
		// A single domain has nothing to balance across (stealing is the
		// whole story), and canonical loads are already at the Theorem 1
		// fixed point — either way there is nothing to plan or move.
		// Skipping the planner keeps balanced steady-state phases
		// allocation-free (the planners build fresh trace vectors on
		// every call).
		r.finishPhase()
		return
	}

	//ripslint:allow hotpath the planners build fresh trace vectors by design; balanced steady-state phases never reach them (BalancedCanonical short-circuits above)
	plan, planTotal, err := PlanLoads(r.dtopo, r.loads)
	if err != nil {
		r.err = err
		r.done = true
		return
	}
	if invariant.Enabled() && planTotal != total {
		invariant.Violated("par: planner saw %d tasks, snapshot had %d", planTotal, total)
	}
	r.phaseMoved = plan.Cost()
	r.migrated += int64(r.phaseMoved)
	for _, m := range plan.Moves {
		r.doms[m.From].migrated += int64(m.Count)
		r.pushMove(m.To, r.takeMove(m))
	}
	r.finishPhase()
}

// finishPhase closes the system phase: Theorem 1 at domain granularity
// — after a planned phase the domain totals sit within one task of the
// domain quota — and conservation are invariant-checked on every real
// phase, the adaptive detector folds in the phase's yield, and the
// stop-the-world time is charged. beginPhase calls it on every path
// that did not abort the run.
func (r *engineRun) finishPhase() {
	if total := r.phaseTotal; total > 0 {
		for i := range r.after {
			r.after[i] = 0
		}
		for _, w := range r.workers {
			r.after[w.dom] += int(w.d.size())
		}
		sum := 0
		for d, x := range r.after {
			sum += x
			invariant.BalancedWithinOne(x, total, r.nd, d, "par: system phase")
		}
		invariant.Conserved(total, sum, "par: system phase")
	}
	r.det.update(r.phaseMoved, r.nd)
	r.sysTime += time.Since(r.phaseStart)
	if h := r.cfg.OnPhase; h != nil && !r.steal { // a Steal run's crossings are round barriers, not system phases
		//ripslint:allow hotpath OnPhase observer contract: the hook runs inside the stopped world and is documented to be allocation-conscious
		h(metrics.PhaseInfo{
			Phase:   r.phases,
			Round:   r.round,
			Tasks:   r.phaseTotal,
			Moved:   r.phaseMoved,
			Elapsed: time.Since(r.start),
		})
	}
}

// BalancedCanonical reports whether loads already sit at the exact
// Theorem 1 quota — floor(total/n) everywhere, plus one on the first
// total mod n nodes — the fixed point every walking algorithm drives
// toward, at which a planner has no moves left to make.
func BalancedCanonical(loads []int, total int) bool {
	n := len(loads)
	lo, rem := total/n, total%n
	for i, x := range loads {
		q := lo
		if i < rem {
			q++
		}
		if x != q {
			return false
		}
	}
	return true
}

// takeMove extracts one move's tasks from the source domain's deques
// into the run's scratch, always from the end the owners do not
// execute from. A domain of stealing workers gives up the tops, swept
// in worker order: the oldest, typically largest subtrees, exactly the
// tasks a thief would have exported. A fifo worker gives up its bottom:
// that forwards tasks which arrived in this same phase first and keeps
// resident tasks home (the locality preference of Theorem 2).
func (r *engineRun) takeMove(m sched.Move) []*node {
	if cap(r.xfer) < m.Count {
		r.xfer = make([]*node, m.Count) //ripslint:allow hotpath the scratch grows to the largest single move once, then every move of every phase reuses it (TestSteadyStateZeroAlloc pins it)
	}
	seg := r.xfer[:m.Count]
	dom := r.doms[m.From]
	got := 0
	if w := r.workers[dom.lo]; w.fifo {
		got = w.d.takeBottomInto(seg)
	} else {
		for i := dom.lo; i < dom.hi && got < m.Count; i++ {
			got += r.workers[i].d.takeTopInto(seg[got:])
		}
	}
	if got != m.Count {
		invariant.Violated("par: domain %d short %d tasks for migration", m.From, m.Count-got)
	}
	return seg[:got]
}

// pushMove lands the tasks takeMove extracted on the destination
// domain's deques, an even share per worker in one bulk push each, and
// clears the scratch so task pointers are not retained across the next
// user phase.
func (r *engineRun) pushMove(to int, seg []*node) {
	dst := r.doms[to]
	n := dst.size()
	for i := 0; i < n; i++ {
		r.workers[dst.lo+i].d.push(seg[len(seg)*i/n : len(seg)*(i+1)/n]...)
	}
	clear(seg)
}
