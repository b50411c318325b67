//ripslint:allow-file wallclock the real-parallel backend measures actual elapsed time by design; scheduling decisions depend only on task counts, never on the clock

package par

import (
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sched"
	"rips/internal/task"
)

// ripsWorker is one worker's private state under the RIPS strategy.
// Only its owner touches it during user phases; the epoch barrier
// hands it to the phase protocol during system phases.
type ripsWorker struct {
	counters
	id    int
	rte   task.Queue  // ready to execute
	stage []task.Task // ready to schedule (Eager local policy)

	// scratch collects the children of the task in hand; it is reused
	// across execute calls so the steady-state user phase allocates
	// nothing. emit is the spawn callback bound to scratch once at
	// construction — rebuilding the closure per task would allocate.
	scratch []task.Task
	emit    func(app.Spawn)

	// xbuf is this worker's migration exchange buffer: every system
	// phase stages the tasks this worker exports into disjoint regions
	// of xbuf, reusing the array across phases (ROADMAP "batched
	// migration"). Writers: the owner during the take half (or the
	// leader under serial apply). Readers: each move's destination
	// worker during the push half, ordered by the exchange sub-barrier.
	xbuf []task.Task
}

func (w *ripsWorker) newID() uint64 {
	w.seq++
	return packID(w.id, w.seq)
}

// applyMove is one plan move staged for application: Count tasks from
// worker from to worker to, parked in from's exchange buffer at
// [off, off+count). got is the number actually taken — written by the
// taker, read by the pusher across the exchange sub-barrier.
type applyMove struct {
	from, to, count int
	off             int
	got             int
}

// ripsRun is the shared state of one RIPS-strategy run.
type ripsRun struct {
	cfg     *Config
	n       int
	workers []*ripsWorker
	bar     *epochBarrier

	// beginFn/endFn are the leader callbacks bound once: passing a
	// fresh method value to await on every phase would allocate on the
	// hot path.
	beginFn, endFn func()

	// cancel is the abort flag mirrored from Config.Cancel by a watcher
	// goroutine (see watchCancel); workers poll it between tasks and
	// the leader honours it at the next phase boundary, so the barrier
	// itself never wedges on a canceled run.
	cancel atomic.Bool
	// start anchors the run's clock readings: the Elapsed field of
	// OnPhase snapshots and the busy time around every task.
	start time.Time

	// Phase state below is written only inside barrier callbacks (the
	// world is stopped) or read by workers between barriers; the
	// barrier's mutex hand-off orders every access.
	round      int
	done       bool
	stopped    bool // done because of cancellation, not completion
	err        error
	phases     int64
	migrated   int64
	waves      int64
	sysTime    time.Duration
	phaseStart time.Time
	phaseTotal int // global task total snapshotted by the phase in flight
	phaseMoved int // tasks the phase in flight migrates (plan cost)

	// Bounded phase-total summary; the full per-phase trace is recorded
	// only under Config.TracePhases so long runs stop growing memory
	// per phase.
	phaseSum    int64
	phaseMax    int
	phaseTotals []int

	// Reusable system-phase buffers (zero steady-state allocations):
	// loads is the snapshot, avail/pend are wave-partition scratch,
	// moves/waveEnds hold the staged plan.
	loads    []int
	avail    []int
	pend     []int
	moves    []applyMove
	waveEnds []int

	// det is the ANY transfer detector (see detector.go).
	det *detector
}

// newRipsRun builds the run state and its workers without starting
// them; benchmarks and phase-level tests drive the returned run
// directly through phaseStep.
func newRipsRun(cfg *Config) *ripsRun {
	n := cfg.Topo.Size()
	r := &ripsRun{
		cfg:     cfg,
		n:       n,
		bar:     newEpochBarrier(n),
		loads:   make([]int, n),
		avail:   make([]int, n),
		pend:    make([]int, n),
		workers: make([]*ripsWorker, 0, n),
		start:   time.Now(),
	}
	r.det = newDetector(cfg, n, &r.cancel)
	r.beginFn = r.beginPhase
	r.endFn = r.finishPhase
	for i := 0; i < n; i++ {
		w := &ripsWorker{id: i}
		// The emit closure runs inside every task execution; the traversal
		// cannot follow the application's dynamic call back to it, so it
		// is rooted explicitly.
		//ripslint:hotpath
		w.emit = func(sp app.Spawn) {
			id := w.newID()
			w.scratch = append(w.scratch, task.Task{ID: id, Origin: w.id, Size: sp.Size, Data: sp.Data}) //ripslint:allow hotpath scratch retains its capacity across tasks; steady-state growth is zero and TestSteadyStateZeroAlloc pins it
		}
		r.workers = append(r.workers, w)
	}
	return r
}

func runRIPS(cfg *Config, d driver) (Result, error) {
	r := newRipsRun(cfg)
	r.loadRoots(0)
	if cfg.Cancel != nil {
		stop := watchCancel(cfg.Cancel, &r.cancel)
		defer stop()
	}

	start := time.Now()
	r.start = start
	d.dispatch(r.n, r.workerMain)
	wall := time.Since(start)

	res := Result{
		Workers:     r.n,
		Overhead:    r.sysTime,
		Migrated:    r.migrated,
		Phases:      r.phases,
		Waves:       r.waves,
		PhaseSum:    r.phaseSum,
		PhaseMax:    r.phaseMax,
		PhaseTotals: r.phaseTotals,
		Canceled:    r.stopped,
	}
	assemble(&res, wall, r.workers, func(w *ripsWorker) *counters { return &w.counters })
	return res, r.err
}

// loadRoots stages a round's root tasks: block-distributed apps start
// with each worker owning its slice, all others start at worker 0 and
// let the first system phase spread the work (the paper's SPMD start).
// Called single-threaded (before the workers start) or by the phase
// leader (inside the barrier).
func (r *ripsRun) loadRoots(round int) {
	roots := r.cfg.App.Roots(round)
	if app.RootsDistributed(r.cfg.App) {
		for i, w := range r.workers {
			lo, hi := app.RootBlock(len(roots), r.n, i)
			for _, sp := range roots[lo:hi] {
				w.rte.PushBack(task.Task{ID: w.newID(), Origin: i, Size: sp.Size, Data: sp.Data})
			}
			w.generated += int64(hi - lo)
		}
		return
	}
	w := r.workers[0]
	for _, sp := range roots {
		w.rte.PushBack(task.Task{ID: w.newID(), Origin: 0, Size: sp.Size, Data: sp.Data})
	}
	w.generated += int64(len(roots))
}

// workerMain is one worker's phase loop: a system phase at every
// barrier epoch, then a user phase until the transfer condition fires.
//
//ripslint:hotpath
func (r *ripsRun) workerMain(id int) {
	w := r.workers[id]
	var point int64
	for {
		if !r.phaseStep(w, &point) {
			return
		}
		r.userPhase(w, r.phases-1)
	}
}

// phaseStep runs one complete system phase from w's perspective and
// reports whether the run continues. The phase is a short barrier
// protocol rather than a single leader callback:
//
//  1. every worker collapses its own staged tasks into its RTE queue
//     (in parallel, before the world stops);
//  2. the last arrival becomes the leader and runs beginPhase with the
//     world stopped: snapshot, round detection, planning, and the
//     partition of the move list into two-phase waves;
//  3. for each wave, every worker concurrently takes its outgoing
//     moves into its exchange buffer, crosses the exchange
//     sub-barrier, then concurrently pushes its incoming moves —
//     so plan application runs on all P cores instead of one;
//  4. the final sub-barrier's leader runs finishPhase (invariants,
//     detector adaptation, timing).
//
// Small plans skip step 3 entirely: beginPhase applies them serially
// and the wave list comes back empty (see Config.ParallelApplyMin).
func (r *ripsRun) phaseStep(w *ripsWorker, point *int64) bool {
	// Schedule-perturbation point (no-op unless built with
	// -tags ripsperturb): jitter this worker's barrier arrival so
	// stress runs explore adversarial epoch interleavings.
	*point++
	perturb(w.id, *point)
	// Leftover RTE tasks are rescheduled together with the staged ones
	// (paper Section 2); each worker collapses its own queues.
	w.rte.PushAll(w.stage)
	w.stage = w.stage[:0]
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
// met. Under ANY a worker holding tasks honours a transfer request
// only after finishing the task in hand — and executes at least one
// task if it has any, which guarantees global progress (every system
// phase is separated by at least one real execution somewhere). A
// drained worker waits in the detector, which requests the transfer
// the moment every worker has drained, or after the detector interval
// while one is still busy — a wait that keeps a momentary drain during
// the initial fan-out from triggering a storm of nearly-empty phases.
// Under ALL there is nothing to signal: draining IS the local
// condition, and the epoch barrier completes exactly when every worker
// has drained.
func (r *ripsRun) userPhase(w *ripsWorker, phase int64) {
	executed := false
	for {
		if r.cancel.Load() {
			return // abort: head straight for the phase barrier
		}
		if executed && r.cfg.Global == ripsrt.Any && r.det.requested(phase) {
			return // someone requested the transfer; one task finished since
		}
		tk, ok := w.rte.PopFront()
		if !ok {
			break // drained: the local condition holds
		}
		r.execute(w, tk)
		executed = true
	}
	if r.cfg.Global == ripsrt.Any {
		r.det.await(w.id, phase, nil)
	}
}

// execute runs one task for real and files its children per the local
// policy. The children land in the worker's reusable scratch buffer,
// so the steady-state user phase performs no allocations of its own
// (the queue and stage arrays retain their capacity across phases).
func (r *ripsRun) execute(w *ripsWorker, tk task.Task) {
	if tk.Origin != w.id {
		w.nonlocal++
	}
	w.executed++
	w.scratch = w.scratch[:0]
	began := time.Since(r.start) // monotonic readings only: time.Now would read the wall clock too
	vw, res := app.ExecuteCount(r.cfg.App, tk.Data, w.emit)
	w.busy += time.Since(r.start) - began
	w.vwork += vw
	w.appResult += res
	if len(w.scratch) > 0 {
		w.generated += int64(len(w.scratch))
		if r.cfg.Local == ripsrt.Eager {
			w.stage = append(w.stage, w.scratch...) //ripslint:allow hotpath the stage array retains its capacity across phases; steady-state growth is zero (TestSteadyStateZeroAlloc pins it)
		} else {
			w.rte.PushAll(w.scratch)
		}
	}
}

// beginPhase runs with the world stopped (every worker parked in the
// epoch barrier, stages already collapsed): it snapshots the loads,
// detects round boundaries, runs the pure walking algorithm of the
// machine topology and stages the plan for application. Large plans
// are partitioned into waves for the workers to apply concurrently;
// small ones are applied by the leader on the spot.
//
// It is a hot-path root of its own: the barrier invokes it through a
// pre-bound function value (r.beginFn), which the traversal cannot
// follow past the waived leader() call site in barrier.go.
//
//ripslint:hotpath
func (r *ripsRun) beginPhase() {
	if r.cancel.Load() {
		// Abort, decided by the leader with the world stopped: every
		// worker is parked in this barrier, so setting done here is the
		// "barrier wakeup" — all of them observe it on release and exit
		// together. Nothing is planned or moved; the queues keep the
		// abandoned tasks.
		r.stopped = true
		r.done = true
		return
	}
	r.phaseStart = time.Now()
	r.moves = r.moves[:0]
	r.waveEnds = r.waveEnds[:0]
	r.phaseMoved = 0

	total := 0
	for i, w := range r.workers {
		r.loads[i] = w.rte.Len()
		total += r.loads[i]
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
	if balancedCanonical(r.loads, total) {
		// Theorem 1 already holds at the exact quota positions: there
		// is nothing to plan or move. Skipping the planner keeps
		// balanced steady-state phases allocation-free (the planners
		// build fresh trace vectors on every call).
		r.finishPhase()
		return
	}

	//ripslint:allow hotpath the planners build fresh trace vectors by design; balanced steady-state phases never reach them (balancedCanonical short-circuits above)
	plan, planTotal, err := planLoads(r.cfg.Topo, r.loads)
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
	r.stageMoves(plan.Moves)

	if r.cfg.SerialApply || r.n == 1 || r.phaseMoved < r.cfg.parallelApplyMin() {
		// Leader-only apply: per the phase-cost model (DESIGN.md §9) a
		// small plan cannot amortize the extra sub-barrier crossings,
		// so the leader applies it alone, move by move in plan order.
		for i := range r.moves {
			mv := &r.moves[i]
			r.takeMove(mv)
			r.pushMove(mv)
		}
		r.moves = r.moves[:0]
		r.finishPhase()
		return
	}
	r.partitionWaves()
	r.waves += int64(len(r.waveEnds))
}

// finishPhase closes the system phase: Theorem 1 and conservation are
// invariant-checked on every real phase, the adaptive detector folds
// in the phase's yield, and the stop-the-world time is charged. It
// runs as the leader callback of the last sub-barrier (or inline from
// beginPhase when no waves were fanned out).
//
//ripslint:hotpath
func (r *ripsRun) finishPhase() {
	if total := r.phaseTotal; total > 0 {
		after := 0
		for i, w := range r.workers {
			after += w.rte.Len()
			invariant.BalancedWithinOne(w.rte.Len(), total, r.n, i, "par: system phase")
		}
		invariant.Conserved(total, after, "par: system phase")
	}
	r.det.update(r.phaseMoved, r.n)
	r.sysTime += time.Since(r.phaseStart)
	if h := r.cfg.OnPhase; h != nil {
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

// balancedCanonical reports whether loads already sit at the exact
// Theorem 1 quota — floor(total/n) everywhere, plus one on the first
// total mod n nodes — the fixed point every walking algorithm drives
// toward.
func balancedCanonical(loads []int, total int) bool {
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

// stageMoves turns the plan into applyMoves with disjoint exchange
// regions: each move parks its tasks in the source worker's xbuf at a
// unique offset, and the buffers are grown once and reused across
// phases. avail doubles as per-worker offset scratch here; it is
// re-derived from loads before the wave partition.
func (r *ripsRun) stageMoves(moves []sched.Move) {
	off := r.avail
	for i := range off {
		off[i] = 0
	}
	for _, m := range moves {
		r.moves = append(r.moves, applyMove{from: m.From, to: m.To, count: m.Count, off: off[m.From]}) //ripslint:allow hotpath r.moves retains its capacity across phases; growth amortizes to zero
		off[m.From] += m.Count
	}
	for i, w := range r.workers {
		if need := off[i]; cap(w.xbuf) < need {
			w.xbuf = make([]task.Task, need) //ripslint:allow hotpath exchange buffers grow to the high-water mark once, then are reused every phase
		} else {
			w.xbuf = w.xbuf[:need]
		}
	}
}

// partitionWaves splits the staged moves into two-phase waves: within
// a wave, every take is satisfiable from the wave-start loads, so all
// takes may run concurrently before any push (see partitionInWaves,
// shared with the domain-granular hybrid apply).
func (r *ripsRun) partitionWaves() {
	r.waveEnds = partitionInWaves(r.moves, r.loads, r.avail, r.pend, r.waveEnds)
}

// partitionInWaves partitions moves into contiguous-prefix waves over
// loads, reusing avail/pend as scratch and appending the wave end
// indices to waveEnds (whose backing array amortizes across phases).
// Because the plan is sequentially feasible, the first move after a
// wave boundary is always satisfiable, so every wave makes progress
// and the wave count is bounded by the plan's forwarding depth (at
// most the topology diameter). The node indices in moves address
// whatever entity loads is indexed by: workers under RIPS, domains
// under Hybrid.
func partitionInWaves(moves []applyMove, loads, avail, pend []int, waveEnds []int) []int {
	copy(avail, loads)
	for i := range pend {
		pend[i] = 0
	}
	for i := range moves {
		mv := &moves[i]
		if avail[mv.from] < mv.count {
			// mv forwards tasks still in flight: close the wave (its
			// pushes land at the boundary) and retry in the next one.
			waveEnds = append(waveEnds, i) //ripslint:allow hotpath waveEnds retains its capacity across phases; growth amortizes to zero
			for n := range pend {
				avail[n] += pend[n]
				pend[n] = 0
			}
			if avail[mv.from] < mv.count {
				invariant.Violated("par: move %d->%d x%d infeasible at a wave boundary: plan not sequentially feasible",
					mv.from, mv.to, mv.count)
			}
		}
		avail[mv.from] -= mv.count
		pend[mv.to] += mv.count
	}
	return append(waveEnds, len(moves)) //ripslint:allow hotpath waveEnds retains its capacity across phases; growth amortizes to zero
}

// waveRange returns the [lo, hi) index range of wave wv in r.moves.
func (r *ripsRun) waveRange(wv int) (int, int) {
	return waveBounds(r.waveEnds, wv)
}

// waveBounds returns the [lo, hi) move-index range of wave wv.
func waveBounds(waveEnds []int, wv int) (int, int) {
	lo := 0
	if wv > 0 {
		lo = waveEnds[wv-1]
	}
	return lo, waveEnds[wv]
}

// applyTake is the take half of one wave from w's perspective: w
// extracts every move it sources into its own exchange buffer. Only w
// touches w's queue and buffer here, so all takes run concurrently.
func (r *ripsRun) applyTake(w *ripsWorker, wv int) {
	lo, hi := r.waveRange(wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.from == w.id {
			r.takeMove(mv)
		}
	}
}

// applyPush is the push half: w appends every move it receives onto
// its own queue. The exchange sub-barrier ordered every take before
// any push, so the source regions are stable; only w writes w's queue.
func (r *ripsRun) applyPush(w *ripsWorker, wv int) {
	lo, hi := r.waveRange(wv)
	for i := lo; i < hi; i++ {
		if mv := &r.moves[i]; mv.to == w.id {
			r.pushMove(mv)
		}
	}
}

// takeMove extracts one move's tasks into the source's exchange
// region. Taking from the back forwards tasks that just arrived in
// this same phase first, keeping resident tasks home (the locality
// preference of Theorem 2).
func (r *ripsRun) takeMove(mv *applyMove) {
	src := r.workers[mv.from]
	mv.got = src.rte.TakeBackInto(src.xbuf[mv.off : mv.off+mv.count])
	if mv.got != mv.count {
		invariant.Violated("par: worker %d short %d tasks for migration", mv.from, mv.count-mv.got)
	}
}

// pushMove lands one move's tasks on the destination queue and clears
// the exchange region so payload references are not retained across
// the next user phase.
func (r *ripsRun) pushMove(mv *applyMove) {
	seg := r.workers[mv.from].xbuf[mv.off : mv.off+mv.got]
	r.workers[mv.to].rte.PushAll(seg)
	for i := range seg {
		seg[i] = task.Task{}
	}
}
