//ripslint:allow-file wallclock the hybrid backend measures actual elapsed time by design; scheduling decisions depend only on task counts, never on the clock

package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sched"
	"rips/internal/task"
	"rips/internal/topo"
)

// This file is the deque engine behind two strategies. Hybrid is the
// RIPS phase protocol across affinity domains, Chase-Lev work stealing
// within them. Workers are partitioned into contiguous domain blocks
// pinned to the machine's NUMA nodes; during user phases an idle worker
// steals only from its domain-mates (cheap, cache-shared traffic), and
// the global epoch barrier stops the world for system phases exactly as
// under pure RIPS — except that the leader snapshots per-DOMAIN load
// sums, plans over a domain-level virtual machine with the unchanged
// walking algorithms, and the plan is applied by the domain leaders
// moving tasks between domains' deques. Intra-domain imbalance needs no
// planning at all: the deques absorb it continuously.
//
// Steal is the same engine at one domain: the victims are the whole
// machine, so there is never anything to plan, and the detector never
// times out, so the barrier is crossed only when the worker completing
// the drained count asks for it — at a round boundary, or one crossing
// early when that count was read stale (see detector.drained). The
// barrier's zero-total snapshot, taken with the world stopped, is what
// advances the round and ends the run; a task in a deque or in a
// thief's hand can therefore never be left behind. A Steal run reports
// none of this as phases: to its caller a crossing is a round barrier.

// slabSize is the number of task nodes a worker carves from one
// allocation. Deques hold pointers, so every task needs a node that
// outlives the execution that spawned it; taking them from a per-worker
// bump slab makes that one allocation per slabSize tasks.
const slabSize = 256

// hybridWorker is one worker's private state in the deque engine: a
// Chase-Lev deque the workers of its domain may steal from, the slab
// its task nodes come from, and the list of nodes not yet pushed.
type hybridWorker struct {
	counters
	id  int
	dom int // index into hybridRun.doms: whom it steals from and balances with
	// class is the domain its steals are accounted to in the Result: dom
	// under Hybrid, the Config.Domains classification under Steal (whose
	// single engine domain is the whole machine).
	class int
	d     *deque
	// slab is the chunk nodes are being carved from, len(slab) of them
	// so far. Only its owner appends (the phase leader too, for roots,
	// with the world stopped). A full chunk is dropped, not recycled: its
	// nodes sit in deques and thieves' hands for as long as they take, so
	// a chunk lives until the last of its nodes is unreachable — which
	// may be rounds after the one that filled it.
	slab []task.Task
	// kids are the nodes emitted but not yet in the deque, in emission
	// order: the children of the task in hand, and under the Eager local
	// policy everything staged since the last system phase. The array is
	// reused.
	kids []*task.Task
	emit func(app.Spawn)
	// sweep is stealLocal bound to this worker once, so handing it to the
	// detector as its poll on every drain allocates nothing.
	sweep  func() *task.Task
	rng    *rand.Rand // victim rotation only; never affects the answer
	steals int64
	// xsteals counts steals whose victim is of another class: none under
	// Hybrid by construction, the cross-domain traffic under Steal.
	xsteals int64
}

func (w *hybridWorker) newID() uint64 {
	w.seq++
	return packID(w.id, w.seq)
}

// release pushes the pending nodes onto the worker's own deque, where
// the owner pops them and thieves may take them. Owner only, or the
// phase leader with the world stopped.
func (w *hybridWorker) release() {
	for _, t := range w.kids {
		w.d.push(t)
	}
	w.kids = w.kids[:0]
}

// hybridDomain is one contiguous worker block [lo, hi) acting as a
// single node of the domain-level RIPS protocol. Worker lo is the
// domain leader: it alone executes the domain's take and push halves
// of plan application, on its pinned thread.
type hybridDomain struct {
	id     int
	lo, hi int
	// cpus is the affinity CPU set the domain's workers pin to; empty
	// on machines without a visible multi-node topology, where pinning
	// to the whole machine would be a no-op constraint.
	cpus []int
	// xbuf is the domain's migration exchange buffer: each system phase
	// stages the task pointers this domain exports into disjoint
	// regions of xbuf, reusing the array across phases. On the parallel
	// path it is grown by the domain leader on its pinned thread, so
	// the backing array is first-touched on the domain's own node.
	// xneed is the phase's required length, staged by the global leader
	// with the world stopped.
	xbuf     []*task.Task
	xneed    int
	migrated int64
}

func (d *hybridDomain) size() int { return d.hi - d.lo }

// hybridRun is the shared state of one run of the deque engine. It
// mirrors ripsRun with the per-worker protocol state replaced by
// per-domain state: loads, plans, waves and exchange buffers are all
// indexed by domain, and nd (not n) bounds the planner's problem size.
type hybridRun struct {
	cfg     *Config
	n, nd   int
	workers []*hybridWorker
	doms    []*hybridDomain
	dtopo   topo.Topology // domain-level virtual machine the planner sees
	bar     *epochBarrier

	// steal marks a Steal run: one domain, a detector without a timeout,
	// and a Result that reports no phases. eager and all are the transfer
	// policy, which Steal ignores (children go straight to the deque, and
	// only the drained count requests a barrier). classes is the number
	// of domains steals are broken down by in the Result: nd under
	// Hybrid, the resolved Config.Domains under Steal, zero without.
	steal, eager, all bool
	classes           int

	beginFn, endFn func()

	cancel atomic.Bool
	// start anchors every clock read of the run: the busy time around a
	// task is the difference of two monotonic readings against it.
	start time.Time
	// pinned counts workers that successfully pinned to their domain's
	// CPUs; the remainder run unpinned by the fallback contract.
	pinned atomic.Int64

	// Phase state below is written only inside barrier callbacks (the
	// world is stopped) or read by workers between barriers; the
	// barrier's mutex hand-off orders every access.
	round      int
	done       bool
	stopped    bool
	err        error
	phases     int64
	migrated   int64
	waves      int64
	sysTime    time.Duration
	phaseStart time.Time
	phaseTotal int
	phaseMoved int

	phaseSum    int64
	phaseMax    int
	phaseTotals []int

	// Reusable domain-granular system-phase buffers (nd entries each).
	loads    []int
	avail    []int
	pend     []int
	moves    []applyMove
	waveEnds []int

	det *detector
}

// newHybridRun builds the run state — domain partition, CPU mapping,
// domain-level topology, workers — without starting the workers.
func newHybridRun(cfg *Config) *hybridRun {
	n := cfg.Topo.Size()
	r := &hybridRun{
		cfg:   cfg,
		n:     n,
		nd:    1,
		steal: cfg.Strategy == Steal,
		bar:   newEpochBarrier(n),
		start: time.Now(),
	}
	if r.steal {
		if cfg.Domains > 0 {
			r.classes = resolveDomains(cfg.Domains, n, false)
		}
	} else {
		_, hypercube := cfg.Topo.(*topo.Hypercube)
		r.nd = resolveDomains(cfg.Domains, n, hypercube)
		r.classes = r.nd
		r.eager = cfg.Local == ripsrt.Eager
		r.all = cfg.Global == ripsrt.All
	}
	nd := r.nd
	r.dtopo = domainTopology(cfg.Topo, nd)
	r.loads = make([]int, nd)
	r.avail = make([]int, nd)
	r.pend = make([]int, nd)
	r.det = newDetector(cfg, n, &r.cancel)
	r.beginFn = r.beginPhase
	r.endFn = r.finishPhase
	classOf := workerDomains(domainBlocks(n, max(r.classes, 1)), n)
	blocks := domainBlocks(n, nd)
	cpus := domainCPUs(nd)
	for d := 0; d < nd; d++ {
		dom := &hybridDomain{id: d, lo: blocks[d][0], hi: blocks[d][1]}
		if cpus != nil {
			dom.cpus = cpus[d]
		}
		r.doms = append(r.doms, dom)
		for i := dom.lo; i < dom.hi; i++ {
			w := &hybridWorker{
				id:    i,
				dom:   d,
				class: classOf[i],
				d:     newDeque(),
				rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(i)*0x9e3779b9)),
			}
			// emit runs inside every task execution, called back by the
			// application: the traversal cannot follow that call, so it is
			// rooted explicitly. It writes the child into the slab and lists
			// the node; pushing is execute's business, outside the busy time.
			//ripslint:hotpath alloc
			w.emit = func(sp app.Spawn) {
				if len(w.slab) == cap(w.slab) {
					w.slab = make([]task.Task, 0, slabSize) //ripslint:allow hotpath slab refill: the one allocation per slabSize task nodes (TestDequeExecutorAllocs pins it)
				}
				k := len(w.slab)
				w.slab = w.slab[:k+1]
				w.slab[k] = task.Task{ID: w.newID(), Origin: w.id, Size: sp.Size, Data: sp.Data}
				w.generated++
				w.kids = append(w.kids, &w.slab[k]) //ripslint:allow hotpath kids keeps its capacity across tasks; growth stops at the widest fan-out (TestDequeExecutorAllocs pins it)
			}
			w.sweep = func() *task.Task { return r.stealLocal(w) }
			r.workers = append(r.workers, w)
		}
	}
	return r
}

// runHybrid runs the deque engine for the Hybrid and Steal strategies.
func runHybrid(cfg *Config, d driver) (Result, error) {
	r := newHybridRun(cfg)
	r.loadRoots(0)
	if cfg.Cancel != nil {
		stop := watchCancel(cfg.Cancel, &r.cancel)
		defer stop()
	}

	start := time.Now()
	r.start = start
	d.dispatch(r.n, r.workerMain)
	wall := time.Since(start)

	res := Result{Workers: r.n, Domains: r.classes, Canceled: r.stopped}
	if !r.steal {
		res.Overhead = r.sysTime
		res.Migrated = r.migrated
		res.Phases = r.phases
		res.Waves = r.waves
		res.PhaseSum = r.phaseSum
		res.PhaseMax = r.phaseMax
		res.PhaseTotals = r.phaseTotals
		res.DomainMigrated = make([]int64, r.nd)
		for _, dom := range r.doms {
			res.DomainMigrated[dom.id] = dom.migrated
		}
	}
	if r.classes > 0 {
		res.DomainSteals = make([]int64, r.classes)
	}
	for _, w := range r.workers {
		res.Steals += w.steals
		res.CrossSteals += w.xsteals
		if r.classes > 0 {
			res.DomainSteals[w.class] += w.steals
		}
	}
	assemble(&res, wall, r.workers, func(w *hybridWorker) *counters { return &w.counters })
	return res, r.err
}

// loadRoots stages a round's root tasks, exactly like the RIPS
// strategy: block-distributed apps start with each worker owning its
// slice, all others start on worker 0 and let the first system phase
// spread the work across domains (stealing spreads it within). Called
// single-threaded before the workers start, or by the phase leader with
// the world stopped, when every worker's pending list is empty.
func (r *hybridRun) loadRoots(round int) {
	roots := r.cfg.App.Roots(round)
	stage := func(w *hybridWorker, roots []app.Spawn) {
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

// workerMain is one worker's phase loop. On machines with several
// affinity domains the worker first locks its OS thread and pins it to
// its domain's CPUs. A pinning failure is deliberately not an error:
// the worker runs unpinned — the protocol is correct either way,
// pinning only improves locality — which is the clean-fallback
// contract the affinity shim documents.
func (r *hybridRun) workerMain(id int) {
	w := r.workers[id]
	if cpus := r.doms[w.dom].cpus; len(cpus) > 0 {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if restore, err := affinityPin(cpus); err == nil {
			r.pinned.Add(1)
			defer restore()
		}
	}
	var point int64
	for {
		if !r.phaseStep(w, &point) {
			return
		}
		r.userPhase(w, r.phases-1, &point)
	}
}

// phaseStep runs one complete system phase from w's perspective and
// reports whether the run continues. The structure is ripsRun's: every
// worker releases its own Eager-staged children into its deque before
// the world stops (nothing is pending under Lazy), the last arrival
// leads beginPhase, then the staged plan is applied in two-phase waves
// — here by the domain leaders, every other worker just crossing the
// sub-barriers.
func (r *hybridRun) phaseStep(w *hybridWorker, point *int64) bool {
	*point++
	perturb(w.id, *point)
	w.release()
	r.bar.await(r.beginFn)
	if r.done { // leader decision, ordered by the barrier
		return false
	}
	for wv := 0; wv < len(r.waveEnds); wv++ {
		r.applyTake(w, wv)
		*point++
		perturb(w.id, *point)
		r.bar.await(nil) // exchange sub-barrier: all takes land before any push
		r.applyPush(w, wv)
		*point++
		perturb(w.id, *point)
		if wv == len(r.waveEnds)-1 {
			r.bar.await(r.endFn)
		} else {
			r.bar.await(nil) // wave boundary: forwarded tasks are now takeable
		}
	}
	return true
}

// userPhase executes tasks until this phase's transfer condition is
// met, with one hybrid twist over ripsRun.userPhase: a worker that
// drains its own deque first tries to steal from its domain-mates, and
// only a drained DOMAIN participates in transfer detection. Under ANY
// the request semantics are unchanged (execute at least one task, then
// honour a published request); under ALL the epoch barrier completes
// exactly when every worker in every domain has drained. A Steal run
// is ANY with a detector that never times out: a drained worker sweeps
// the machine until it finds a task or the drained count completes.
func (r *hybridRun) userPhase(w *hybridWorker, phase int64, point *int64) {
	executed := false
	for {
		if r.cancel.Load() {
			return // abort: head straight for the phase barrier
		}
		if executed && !r.all && r.det.requested(phase) {
			return // someone requested the transfer; one task finished since
		}
		t := w.d.pop()
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
// under Steal, whose one domain it is.
func (r *hybridRun) stealLocal(w *hybridWorker) *task.Task {
	dom := r.doms[w.dom]
	n := dom.size()
	if n < 2 {
		return nil
	}
	off := w.rng.Intn(n)
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
// policy. The bound emit closure carves each child's node from the
// worker's slab and lists it in kids; Lazy (and Steal) then pushes the
// listed nodes onto the deque, Eager leaves them listed until the next
// system phase. The busy time is the task alone: two monotonic clock
// readings against the run's start, with the pushes outside them.
//
//ripslint:hotpath alloc
func (r *hybridRun) execute(w *hybridWorker, t *task.Task) {
	if t.Origin != w.id {
		w.nonlocal++
	}
	w.executed++
	began := time.Since(r.start)
	vw, res := app.ExecuteCount(r.cfg.App, t.Data, w.emit)
	w.busy += time.Since(r.start) - began
	w.vwork += vw
	w.appResult += res
	if !r.eager {
		w.release()
	}
}

// beginPhase runs with the world stopped: it snapshots the per-domain
// load sums, detects round boundaries (a zero global total: every
// worker is parked in the barrier, so no task is in a thief's hand and
// the deque sizes are exact — the snapshot, not any count kept while
// workers run, is what ends a round), runs the pure walking algorithm
// over the domain-level topology and stages the plan. Everything
// ripsRun's beginPhase does per worker happens here per domain.
//
//ripslint:hotpath
func (r *hybridRun) beginPhase() {
	if r.cancel.Load() {
		// Abort, decided by the leader with the world stopped; every
		// worker observes done on release and exits together.
		r.stopped = true
		r.done = true
		return
	}
	r.phaseStart = time.Now()
	r.moves = r.moves[:0]
	r.waveEnds = r.waveEnds[:0]
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
	if r.cfg.TracePhases {
		r.phaseTotals = append(r.phaseTotals, total) //ripslint:allow hotpath opt-in tracing grows the trace by design; steady-state runs keep TracePhases off
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
	if r.nd == 1 || balancedCanonical(r.loads, total) {
		// A single domain has nothing to balance across (stealing is
		// the whole story), and canonical loads are already at the
		// Theorem 1 fixed point — either way, nothing to plan.
		r.finishPhase()
		return
	}

	//ripslint:allow hotpath the planners build fresh trace vectors by design; balanced steady-state phases never reach them (balancedCanonical short-circuits above)
	plan, planTotal, err := planLoads(r.dtopo, r.loads)
	if err != nil {
		r.err = err
		r.done = true
		return
	}
	if invariant.Enabled() && planTotal != total {
		invariant.Violated("par: hybrid planner saw %d tasks, snapshot had %d", planTotal, total)
	}
	r.phaseMoved = plan.Cost()
	r.migrated += int64(r.phaseMoved)
	r.stageMoves(plan.Moves)

	if r.cfg.SerialApply || r.phaseMoved < r.cfg.parallelApplyMin() {
		// Leader-only apply, move by move in plan order; the leader
		// grows every domain's exchange buffer itself (no first-touch
		// care for plans this small).
		for i := range r.doms {
			r.ensureXbuf(r.doms[i]) //ripslint:allow hotpath exchange buffers grow to the high-water mark once, then are reused every phase
		}
		for i := range r.moves {
			mv := &r.moves[i]
			r.takeMove(mv)
			r.pushMove(mv)
		}
		r.moves = r.moves[:0]
		r.finishPhase()
		return
	}
	r.waveEnds = partitionInWaves(r.moves, r.loads, r.avail, r.pend, r.waveEnds)
	r.waves += int64(len(r.waveEnds))
}

// finishPhase closes the system phase: Theorem 1 now holds at DOMAIN
// granularity — after a planned phase the domain totals sit within one
// task of the domain quota — plus conservation, detector adaptation
// and stop-the-world accounting, mirroring ripsRun.finishPhase.
//
//ripslint:hotpath
func (r *hybridRun) finishPhase() {
	if total := r.phaseTotal; total > 0 {
		av := r.avail // scratch; wave partition and offsets are done with it
		for i := range av {
			av[i] = 0
		}
		for _, w := range r.workers {
			av[w.dom] += int(w.d.size())
		}
		after := 0
		for d, x := range av {
			after += x
			invariant.BalancedWithinOne(x, total, r.nd, d, "par: hybrid system phase")
		}
		invariant.Conserved(total, after, "par: hybrid system phase")
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

// stageMoves turns the domain-level plan into applyMoves with disjoint
// exchange regions per source domain, and records the per-domain
// export volume. avail doubles as per-domain offset scratch here; it
// is re-derived before the wave partition and the balance check.
func (r *hybridRun) stageMoves(moves []sched.Move) {
	off := r.avail
	for i := range off {
		off[i] = 0
	}
	for _, m := range moves {
		r.moves = append(r.moves, applyMove{from: m.From, to: m.To, count: m.Count, off: off[m.From]}) //ripslint:allow hotpath r.moves retains its capacity across phases; growth amortizes to zero
		off[m.From] += m.Count
		r.doms[m.From].migrated += int64(m.Count)
	}
	for d, dom := range r.doms {
		dom.xneed = off[d]
	}
}

// ensureXbuf sizes the domain's exchange buffer for the phase. On the
// parallel path it runs on the domain leader's pinned thread, so a
// grown buffer is first-touched on the domain's own node.
func (r *hybridRun) ensureXbuf(dom *hybridDomain) {
	if cap(dom.xbuf) < dom.xneed {
		dom.xbuf = make([]*task.Task, dom.xneed)
	} else {
		dom.xbuf = dom.xbuf[:dom.xneed]
	}
}

// applyTake is the take half of one wave from w's perspective: only
// the domain leader acts, extracting every move its domain sources
// into the domain's exchange buffer. Quiescence at the barrier makes
// the bulk deque takes safe without CAS traffic.
func (r *hybridRun) applyTake(w *hybridWorker, wv int) {
	dom := r.doms[w.dom]
	if w.id != dom.lo {
		return
	}
	r.ensureXbuf(dom)
	lo, hi := waveBounds(r.waveEnds, wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.from == dom.id {
			r.takeMove(mv)
		}
	}
}

// applyPush is the push half: the destination domain's leader lands
// every move its domain receives. The exchange sub-barrier ordered all
// takes before any push, so the source regions are stable.
func (r *hybridRun) applyPush(w *hybridWorker, wv int) {
	dom := r.doms[w.dom]
	if w.id != dom.lo {
		return
	}
	lo, hi := waveBounds(r.waveEnds, wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.to == dom.id {
			r.pushMove(mv)
		}
	}
}

// takeMove extracts one move's tasks from the source domain's deques
// into its exchange region, sweeping the domain's workers in order and
// taking from the steal end of each deque — the oldest, typically
// largest subtrees, exactly the tasks a thief would have exported.
func (r *hybridRun) takeMove(mv *applyMove) {
	dom := r.doms[mv.from]
	seg := dom.xbuf[mv.off : mv.off+mv.count]
	got := 0
	for i := dom.lo; i < dom.hi && got < mv.count; i++ {
		got += r.workers[i].d.takeTopInto(seg[got:])
	}
	mv.got = got
	if got != mv.count {
		invariant.Violated("par: hybrid domain %d short %d tasks for migration", mv.from, mv.count-got)
	}
}

// pushMove lands one move's tasks across the destination domain's
// deques round-robin and clears the exchange region so task pointers
// are not retained across the next user phase.
func (r *hybridRun) pushMove(mv *applyMove) {
	src := r.doms[mv.from]
	dst := r.doms[mv.to]
	seg := src.xbuf[mv.off : mv.off+mv.got]
	n := dst.size()
	for i, t := range seg {
		r.workers[dst.lo+i%n].d.push(t)
		seg[i] = nil
	}
}
