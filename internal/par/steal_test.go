package par

import (
	"runtime"
	"sync/atomic"
	"testing"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// TestStealResultContract pins what a Steal run looks like from
// outside now that it is the deque engine at one domain: the barrier
// crossings that advance its rounds are not system phases, so nothing
// phase-shaped is reported and OnPhase is never called; the transfer
// policy is ignored; and Config.Domains still only classifies steals.
func TestStealResultContract(t *testing.T) {
	ida := puzzle.Configs()[0] // 9 rounds: at least 9 barrier crossings
	want := measure(t, ida)
	for _, domains := range []int{0, 2, 3} {
		var hooked atomic.Int64
		res := mustRun(t, Config{
			Topo:     topo.NewMesh(2, 2),
			App:      ida,
			Strategy: Steal,
			Domains:  domains,
			Local:    ripsrt.Eager, // ignored
			Global:   ripsrt.All,   // ignored
			Seed:     int64(domains),
			OnPhase:  func(metrics.PhaseInfo) { hooked.Add(1) },
		})
		checkPar(t, "steal", res, want)
		if res.Phases != 0 || res.Migrated != 0 || res.Overhead != 0 {
			t.Errorf("domains=%d: Phases=%d Migrated=%d Overhead=%v, want all zero",
				domains, res.Phases, res.Migrated, res.Overhead)
		}
		if res.PhaseSum != 0 || res.PhaseMax != 0 || res.DomainMigrated != nil {
			t.Errorf("domains=%d: phase summary %d/%d, DomainMigrated %v; want none",
				domains, res.PhaseSum, res.PhaseMax, res.DomainMigrated)
		}
		if n := hooked.Load(); n != 0 {
			t.Errorf("domains=%d: OnPhase called %d times under Steal", domains, n)
		}
		if res.Steals != res.Nonlocal {
			t.Errorf("domains=%d: %d steals but %d nonlocal executions", domains, res.Steals, res.Nonlocal)
		}
		if res.Domains != domains || len(res.DomainSteals) != domains {
			t.Errorf("domains=%d: Result.Domains = %d with %d DomainSteals entries", domains, res.Domains, len(res.DomainSteals))
		}
		var ds int64
		for _, v := range res.DomainSteals {
			ds += v
		}
		if domains > 0 && ds != res.Steals {
			t.Errorf("domains=%d: breakdown sums to %d of %d steals", domains, ds, res.Steals)
		}
		if res.CrossSteals > res.Steals || (domains == 0 && res.CrossSteals != 0) {
			t.Errorf("domains=%d: %d cross-domain steals of %d", domains, res.CrossSteals, res.Steals)
		}
	}
}

// twig is one task of twigApp: a preallocated node, so payloads do not
// box.
type twig struct {
	kids  []*twig
	value int64
}

// twigApp is many rounds of next to nothing: a lone task, a root with
// two leaves, two roots, or one deep chain a single task wide. Almost
// every drain is a round boundary and almost every worker is a thief
// with nothing to steal, which is where a termination detector goes
// wrong. The app watches the one thing the detector must guarantee: a
// round's roots are asked for only when every task of the rounds
// before has executed.
type twigApp struct {
	roots [][]app.Spawn
	sizes []int64

	executed atomic.Int64 // tasks executed so far
	due      int64        // tasks of the rounds staged so far; Roots runs with the world stopped
	early    atomic.Int64 // rounds staged while an earlier task was outstanding
}

const twigChain = 48

func newTwigApp(rounds int) *twigApp {
	a := &twigApp{}
	leaf := func(v int64) *twig { return &twig{value: v} }
	for r := 0; r < rounds; r++ {
		v := int64(r + 1)
		var roots []*twig
		switch r % 4 {
		case 0:
			roots = []*twig{leaf(v)}
		case 1:
			roots = []*twig{{value: v, kids: []*twig{leaf(2 * v), leaf(3 * v)}}}
		case 2:
			chain := leaf(v)
			for d := 1; d < twigChain; d++ {
				chain = &twig{value: v + int64(d), kids: []*twig{chain}}
			}
			roots = []*twig{chain}
		default:
			roots = []*twig{leaf(v), {value: 5 * v, kids: []*twig{leaf(7 * v)}}}
		}
		var sp []app.Spawn
		var size int64
		var count func(*twig)
		count = func(n *twig) {
			size++
			for _, k := range n.kids {
				count(k)
			}
		}
		for _, n := range roots {
			sp = append(sp, app.Spawn{Data: n})
			count(n)
		}
		a.roots = append(a.roots, sp)
		a.sizes = append(a.sizes, size)
	}
	return a
}

func (a *twigApp) reset() {
	a.executed.Store(0)
	a.due = 0
	a.early.Store(0)
}

func (a *twigApp) Name() string { return "twigs" }
func (a *twigApp) Rounds() int  { return len(a.roots) }
func (a *twigApp) Roots(round int) []app.Spawn {
	if a.executed.Load() != a.due {
		a.early.Add(1)
	}
	a.due += a.sizes[round]
	return append([]app.Spawn(nil), a.roots[round]...) // callers may append to what they get
}
func (a *twigApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := a.ExecuteCount(data, emit)
	return w
}
func (a *twigApp) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	n := data.(*twig)
	for _, k := range n.kids {
		emit(app.Spawn{Data: k})
	}
	a.executed.Add(1)
	return 1, n.value
}

// TestStealTerminationStress runs twigApp on eight workers over two
// processors, again and again. With no pending-task counter, a round
// ends when the drained count completes AND the barrier finds every
// deque empty; the count alone can be stale — a thief holding a stolen
// task is still counted while its victim drains and counts itself last
// — and must then cost a barrier crossing, never a task or a round
// entered early.
func TestStealTerminationStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runs := 200
	if testing.Short() {
		runs = 40
	}
	a := newTwigApp(60)
	want := measure(t, a)
	for i := 0; i < runs; i++ {
		a.reset()
		res, err := Run(Config{Topo: topo.NewMesh(2, 4), App: a, Strategy: Steal, Seed: int64(i)})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		checkPar(t, "steal twigs", res, want)
		if n := a.early.Load(); n != 0 {
			t.Fatalf("run %d: %d rounds entered while a task of an earlier round was outstanding", i, n)
		}
		if t.Failed() {
			t.Fatalf("run %d diverged", i)
		}
	}
}

// holdApp is one task that, once running, stays running until the test
// lets it go.
type holdApp struct {
	started, release chan struct{}
}

func (a *holdApp) Name() string          { return "hold" }
func (a *holdApp) Rounds() int           { return 1 }
func (a *holdApp) Roots(int) []app.Spawn { return []app.Spawn{{}} }
func (a *holdApp) Execute(any, func(app.Spawn)) sim.Time {
	close(a.started)
	<-a.release
	return 1
}

// TestStealIdleThiefLeavesOnAbort parks a thief in a wait that has no
// deadline — its only mate is inside a task for as long as the test
// says — and checks that the abort flag alone brings the thief to the
// barrier while the task is still running. (A Config.Timeout of the
// public API closes the same channel; TestStealTimeout there.)
func TestStealIdleThiefLeavesOnAbort(t *testing.T) {
	a := &holdApp{started: make(chan struct{}), release: make(chan struct{})}
	cancel := make(chan struct{})
	cfg := Config{Topo: topo.NewMesh(1, 2), App: a, Strategy: Steal, Cancel: cancel}
	r := newEngineRun(&cfg)
	r.loadRoots(0)
	defer watchCancel(cfg.Cancel, &r.cancel)()
	done := make(chan struct{})
	go func() {
		defer close(done)
		goDriver{}.dispatch(r.n, r.workerMain)
	}()
	within(t, a.started, "the task starting")
	spinUntil(t, func() bool { return r.det.drained.Load() == 1 }, "thief waiting in the detector")
	close(cancel)
	atBarrier := func() bool {
		r.bar.mu.Lock()
		defer r.bar.mu.Unlock()
		return r.bar.arrived == 1
	}
	spinUntil(t, atBarrier, "thief at the barrier with its mate still busy")
	close(a.release)
	within(t, done, "the run after the task was let go")
	if !r.stopped {
		t.Error("run did not end as canceled")
	}
	if r.det.requested(0) {
		t.Error("an aborted thief requested a barrier nobody needed")
	}
}

// mallocsOf runs f and returns the number of heap objects the process
// allocated meanwhile.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDequeExecutorAllocs pins the per-task allocation floor at zero: a
// whole run of the engine — workers, deque rings and their doublings,
// the pending list's growth, roots, the planner's vectors and the slabs
// — allocates a constant, a few objects per planned system phase and
// one slab per slabSize nodes of its high-water mark, whatever the
// number of tasks. The synthetic tree's payloads are pointers; the
// built-in apps' are inline words, so a payload that went back to
// boxing would cost one object per task and fail the same bound.
// Depth-first rows must also stay shallow: the nodes they carve are a
// vanishing share of the tasks they run.
func TestDequeExecutorAllocs(t *testing.T) {
	// The constant part measures ~50 (Steal) to ~140 (RIPS on the tree)
	// and a planned phase ~10 (PlanLoads builds its vectors afresh); one
	// object per task would be 11 000 to 93 000.
	const perRun, perPhase = 250, 16
	tree := newBenchApp(8, 4) // (4^9-1)/3 = 87381 tasks
	ida := puzzle.Configs()[0]
	for _, c := range []struct {
		name    string
		cfg     Config
		shallow bool // depth-first: the deques stay a few tasks deep
	}{
		{"tree/rips-lazy", Config{App: tree}, false},
		{"tree/rips-eager", Config{App: tree, Local: ripsrt.Eager}, false},
		{"tree/steal", Config{App: tree, Strategy: Steal}, true},
		{"tree/hybrid-lazy", Config{App: tree, Strategy: Hybrid, Domains: 1}, true},
		{"tree/hybrid-eager", Config{App: tree, Strategy: Hybrid, Domains: 2, Local: ripsrt.Eager}, false},
		{"ida1/steal", Config{App: ida, Strategy: Steal}, true},
		{"ida1/rips", Config{App: ida}, false},
		{"queens14/rips", Config{App: nqueens.New(14, 4)}, false},
	} {
		c.cfg.Topo = topo.NewMesh(1, 2)
		tasks := measure(t, c.cfg.App).tasks
		var (
			r   *engineRun
			res Result
			err error
		)
		mallocs := mallocsOf(func() {
			r = newEngineRun(&c.cfg)
			res, err = r.run(goDriver{})
		})
		if err != nil || res.Executed != tasks {
			t.Fatalf("%s: executed %d of %d tasks: %v", c.name, res.Executed, tasks, err)
		}
		nodes := r.nodes // the run's node high-water mark, summed over its workers
		t.Logf("%s: %d tasks on %d nodes, %d allocations, %d phases", c.name, tasks, nodes, mallocs, res.Phases)
		if limit := uint64(perRun + perPhase*int(res.Phases) + nodes/slabSize); mallocs > limit {
			t.Errorf("%s: %d allocations for %d tasks on %d nodes in %d phases, want at most %d (%d + %d per phase + one per %d nodes)",
				c.name, mallocs, tasks, nodes, res.Phases, limit, perRun, perPhase, slabSize)
		}
		if c.shallow && int64(nodes) > tasks/20 {
			t.Errorf("%s: %d nodes carved for %d tasks: a depth-first run is not reusing them", c.name, nodes, tasks)
		}
	}
}

// BenchmarkStealRoundBoundary is BenchmarkRoundBoundary under Steal:
// one empty task per round on two workers, ns/op is ns per round. The
// thief waits in the detector, the other worker executes and drains,
// the count completes, both cross the barrier and the leader stages
// the next round. It pins the boundary at microseconds; the executor
// this replaced slept a thief after sixteen empty sweeps, and a round
// that ended during the sleep waited out the timer's granularity.
func BenchmarkStealRoundBoundary(b *testing.B) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: &roundsApp{rounds: b.N, root: []app.Spawn{{}}}, Strategy: Steal}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Executed != int64(b.N) {
		b.Fatalf("executed %d tasks in %d rounds", res.Executed, b.N)
	}
}
