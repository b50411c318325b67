package par

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// queens8 returns a small real workload: 8-Queens has 92 solutions and
// a few hundred tasks at split depth 3.
func queens8() *nqueens.App { return nqueens.New(8, 3) }

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s on %s): %v", cfg.Strategy, cfg.Topo.Name(), err)
	}
	return res
}

func checkQueens8(t *testing.T, res Result, label string) {
	t.Helper()
	if res.AppResult != 92 {
		t.Errorf("%s: AppResult = %d, want 92 solutions", label, res.AppResult)
	}
	if res.Executed != res.Generated {
		t.Errorf("%s: executed %d of %d generated", label, res.Executed, res.Generated)
	}
	if res.Wall <= 0 || res.Busy <= 0 {
		t.Errorf("%s: non-positive timings Wall=%v Busy=%v", label, res.Wall, res.Busy)
	}
}

// tracePhases sets cfg.OnPhase to a hook that appends every system
// phase's task total to the returned trace. The hook runs with the
// world stopped, one phase at a time, and the end of the run orders the
// caller's reads after the last append.
func tracePhases(cfg *Config) *[]int {
	totals := new([]int)
	cfg.OnPhase = func(pi metrics.PhaseInfo) { *totals = append(*totals, pi.Tasks) }
	return totals
}

// TestRIPSPolicies runs every Local x Global combination over a real
// mesh and checks the answer never depends on the policy.
func TestRIPSPolicies(t *testing.T) {
	for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
		for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
			cfg := Config{
				Topo:   topo.NewMesh(2, 2),
				App:    queens8(),
				Local:  local,
				Global: global,
			}
			trace := tracePhases(&cfg)
			res := mustRun(t, cfg)
			totals := *trace
			label := "RIPS " + global.String() + "-" + local.String()
			checkQueens8(t, res, label)
			if res.Phases == 0 {
				t.Errorf("%s: no system phases ran", label)
			}
			if len(totals) != int(res.Phases) {
				t.Fatalf("%s: %d phase totals for %d phases", label, len(totals), res.Phases)
			}
			if totals[len(totals)-1] != 0 {
				t.Errorf("%s: final phase total %d, want 0 (termination)", label, totals[len(totals)-1])
			}
			var sum int64
			max := 0
			for _, v := range totals {
				sum += int64(v)
				if v > max {
					max = v
				}
			}
			if res.PhaseSum != sum || res.PhaseMax != max {
				t.Errorf("%s: phase summary sum=%d max=%d, trace says sum=%d max=%d",
					label, res.PhaseSum, res.PhaseMax, sum, max)
			}
		}
	}
}

// TestRIPSResultContract pins what a RIPS run looks like from outside
// now that it is the engine at one-worker domains: nothing domain- or
// steal-shaped is reported and OnPhase fires once per system phase.
func TestRIPSResultContract(t *testing.T) {
	ida := puzzle.Configs()[0] // 9 rounds: every round boundary is a phase
	want := measure(t, ida)
	var hooked atomic.Int64
	res := mustRun(t, Config{
		Topo:    topo.NewMesh(2, 2),
		App:     ida,
		OnPhase: func(metrics.PhaseInfo) { hooked.Add(1) },
	})
	checkPar(t, "rips", res, want)
	if res.Domains != 0 || res.Steals != 0 || res.CrossSteals != 0 || res.DomainSteals != nil || res.DomainMigrated != nil {
		t.Errorf("Domains=%d Steals=%d CrossSteals=%d DomainSteals=%v DomainMigrated=%v, want none of it under RIPS",
			res.Domains, res.Steals, res.CrossSteals, res.DomainSteals, res.DomainMigrated)
	}
	if res.Phases < int64(ida.Rounds()) || res.Migrated == 0 {
		t.Errorf("Phases=%d Migrated=%d on a %d-round job", res.Phases, res.Migrated, ida.Rounds())
	}
	if n := hooked.Load(); n != res.Phases {
		t.Errorf("OnPhase called %d times for %d phases", n, res.Phases)
	}
}

// depthApp is a uniform tree whose tasks are their own depth; it
// records the depths in execution order (one worker, so no locking).
type depthApp struct {
	depth, fanout int
	order         []int
}

func (a *depthApp) Name() string          { return "depths" }
func (a *depthApp) Rounds() int           { return 1 }
func (a *depthApp) Roots(int) []app.Spawn { return []app.Spawn{{Data: 0}} }
func (a *depthApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	d := data.(int)
	a.order = append(a.order, d)
	for i := 0; d < a.depth && i < a.fanout; i++ {
		emit(app.Spawn{Data: d + 1})
	}
	return 1
}

// TestPopOrder pins the queue discipline on one worker, where it is
// deterministic: a worker balanced by count (RIPS; Hybrid, alone in its
// domain) takes its oldest task, so the tree is executed level by level
// and its deque length tracks the work left; a Steal worker takes its
// newest at every worker count, depth first. Folding RIPS onto the
// deque engine without this fails the first leg.
func TestPopOrder(t *testing.T) {
	for _, strat := range []Strategy{RIPS, Hybrid, Steal} {
		a := &depthApp{depth: 4, fanout: 3}
		res := mustRun(t, Config{Topo: topo.NewMesh(1, 1), App: a, Strategy: strat})
		if res.Executed != 121 || len(a.order) != 121 {
			t.Fatalf("%s: executed %d tasks, recorded %d, want 121", strat, res.Executed, len(a.order))
		}
		for i := 1; i < len(a.order); i++ {
			prev, cur := a.order[i-1], a.order[i]
			if strat != Steal && cur < prev {
				t.Fatalf("%s: task %d has depth %d after depth %d; want oldest first, level by level", strat, i, cur, prev)
			}
			if strat == Steal && prev < a.depth && cur != prev+1 {
				t.Fatalf("%s: task %d has depth %d after an inner task of depth %d; want its newest child next", strat, i, cur, prev)
			}
		}
	}
}

// TestRIPSTopologies checks the tree and hypercube planners drive
// system phases just like the mesh.
func TestRIPSTopologies(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 1),
		topo.NewMesh(4, 2),
		topo.NewTree(7),
		topo.NewHypercube(3),
	} {
		res := mustRun(t, Config{Topo: tp, App: queens8()})
		checkQueens8(t, res, "RIPS on "+tp.Name())
	}
}

// TestStealWorkers checks the work-stealing strategy across worker
// counts and seeds: steal order may differ, the answer may not.
func TestStealWorkers(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 1),
		topo.NewMesh(2, 2),
		topo.NewRing(6), // Steal accepts any topology
	} {
		for _, seed := range []int64{1, 42} {
			res := mustRun(t, Config{Topo: tp, App: queens8(), Strategy: Steal, Seed: seed})
			checkQueens8(t, res, "steal on "+tp.Name())
			// Tasks only ever change workers by being stolen, and a
			// stolen task always executes away from its origin — so the
			// two counters must agree exactly, whatever the timing. (On
			// few cores zero steals is legitimate: one worker can drain
			// the whole tree before a thief wakes.)
			if res.Steals != res.Nonlocal {
				t.Errorf("steal on %s: %d steals but %d nonlocal executions", tp.Name(), res.Steals, res.Nonlocal)
			}
		}
	}
}

// TestZeroDetectIntervalTerminates is the regression test for the
// detector-throttle fix: a disabled backoff (negative interval, i.e. a
// zero wait) must still terminate — the phase-indexed request word
// guarantees progress even when every drained worker initiates
// instantly.
func TestZeroDetectIntervalTerminates(t *testing.T) {
	for _, interval := range []time.Duration{-1, time.Microsecond} {
		res := mustRun(t, Config{
			Topo:           topo.NewMesh(2, 2),
			App:            queens8(),
			DetectInterval: interval,
		})
		checkQueens8(t, res, "RIPS with detect interval "+interval.String())
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{App: queens8()}, "Topo is required"},
		{Config{Topo: topo.NewMesh(2, 2)}, "App is nil"},
		{Config{Topo: topo.NewRing(4), App: queens8()}, "no system-phase planner"},
		{Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Strategy(99)}, "unknown strategy"},
	}
	for _, c := range cases {
		_, err := Run(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v) error = %v, want substring %q", c.cfg, err, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if RIPS.String() != "rips" || Steal.String() != "steal" {
		t.Fatalf("Strategy strings = %q, %q", RIPS.String(), Steal.String())
	}
}
