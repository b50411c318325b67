package ripsrt

import (
	"math/rand"
	"testing"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/collective"
	"rips/internal/sched"
	"rips/internal/sched/mwa"
	"rips/internal/sim"
	"rips/internal/task"
	"rips/internal/topo"
)

// dummyApp exists only to satisfy Config in white-box phase tests.
type dummyApp struct{}

func (dummyApp) Name() string                          { return "dummy" }
func (dummyApp) Rounds() int                           { return 1 }
func (dummyApp) Roots(int) []app.Spawn                 { return nil }
func (dummyApp) Execute(any, func(app.Spawn)) sim.Time { return 0 }

// TestSystemPhaseMatchesPureMWA is the central fidelity check: one
// message-passing system phase must deliver exactly the per-node
// quotas and total per-link transfer count of the pure Figure 3
// algorithm in internal/sched/mwa.
func TestSystemPhaseMatchesPureMWA(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, mesh := range []*topo.Mesh{
		topo.NewMesh(1, 1), topo.NewMesh(1, 6), topo.NewMesh(6, 1),
		topo.NewMesh(2, 2), topo.NewMesh(4, 4), topo.NewMesh(8, 4), topo.NewMesh(3, 5),
	} {
		for trial := 0; trial < 8; trial++ {
			w := make([]int, mesh.Size())
			for i := range w {
				w[i] = rng.Intn(25)
			}
			pure, err := mwa.Plan(mesh, w)
			if err != nil {
				t.Fatal(err)
			}

			cfg := Config{Topo: mesh, App: dummyApp{}}
			final := make([]int, mesh.Size())
			totals := make([]int, mesh.Size())
			sr, err := sim.Run(sim.Config{Topo: mesh, Latency: sim.DefaultLatency(), Seed: 3}, func(n *sim.Node) {
				st := &nodeState{
					n:     n,
					cfg:   &cfg,
					sched: newMeshSched(mesh, n.ID()),
					comm:  &collective.Comm{Node: n, TagBase: tagColl},
				}
				for k := 0; k < w[n.ID()]; k++ {
					st.rts.PushBack(task.Task{ID: st.newID(), Origin: n.ID(), Size: 16})
				}
				totals[n.ID()] = st.systemPhase()
				final[n.ID()] = st.rte.Len()
			})
			if err != nil {
				t.Fatalf("%s w=%v: %v", mesh.Name(), w, err)
			}
			for id := range final {
				if final[id] != pure.Quota[id] {
					t.Fatalf("%s w=%v: node %d got %d tasks, pure MWA says %d",
						mesh.Name(), w, id, final[id], pure.Quota[id])
				}
				if totals[id] != pure.Total {
					t.Fatalf("%s: node %d reported total %d, want %d", mesh.Name(), id, totals[id], pure.Total)
				}
			}
			if got := sr.Counters[CounterMigrated]; got != int64(pure.Plan.Cost()) {
				t.Fatalf("%s w=%v: migrated %d task-links, pure MWA cost %d",
					mesh.Name(), w, got, pure.Plan.Cost())
			}
		}
	}
}

// TestSystemPhaseLocality: replaying a phase with provenance, resident
// tasks stay put whenever Lemma 1 allows (divisible totals).
func TestSystemPhaseLocality(t *testing.T) {
	mesh := topo.NewMesh(4, 4)
	w := []int{32, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	cfg := Config{Topo: mesh, App: dummyApp{}}
	sr, err := sim.Run(sim.Config{Topo: mesh, Seed: 1}, func(n *sim.Node) {
		st := &nodeState{n: n, cfg: &cfg,
			sched: newMeshSched(mesh, n.ID()),
			comm:  &collective.Comm{Node: n, TagBase: tagColl}}
		for k := 0; k < w[n.ID()]; k++ {
			st.rts.PushBack(task.Task{ID: st.newID(), Origin: n.ID(), Size: 16})
		}
		st.systemPhase()
		// Count tasks still at their origin.
		local := 0
		for !st.rte.Empty() {
			tk, _ := st.rte.PopFront()
			if tk.Origin == n.ID() {
				local++
			}
		}
		n.Count("test.local", int64(local))
	})
	if err != nil {
		t.Fatal(err)
	}
	// avg = 3: origins keep min(w, 3) = 3 and 3; nonlocal = 48 - 6 = 42;
	// Lemma 1 minimum m = sum of deficits = 14 nodes * 3 = 42. Local
	// total = 48 - 42 = 6.
	if got := sr.Counters["test.local"]; got != 6 {
		t.Errorf("local tasks = %d, want 6 (maximum locality)", got)
	}
	if m := sched.MinNonlocal(w); m != 42 {
		t.Fatalf("test arithmetic wrong: m=%d", m)
	}
}

func queensCfg(mesh *topo.Mesh, local LocalPolicy, global GlobalPolicy) Config {
	return Config{
		Topo:   mesh,
		App:    nqueens.New(10, 3),
		Local:  local,
		Global: global,
	}
}

// TestAllPolicyCombinationsComplete: the four paper policies and both
// periodic detectors all run 10-queens to completion with every task
// executed exactly once and full work conservation.
func TestAllPolicyCombinationsComplete(t *testing.T) {
	mesh := topo.NewMesh(4, 4)
	profile := app.Measure(nqueens.New(10, 3))
	cases := []Config{
		queensCfg(mesh, Lazy, Any),
		queensCfg(mesh, Eager, Any),
		queensCfg(mesh, Lazy, All),
		queensCfg(mesh, Eager, All),
	}
	per := queensCfg(mesh, Lazy, Any)
	per.Detector = Periodic
	per.Period = 2 * sim.Millisecond
	cases = append(cases, per)
	perAll := queensCfg(mesh, Eager, All)
	perAll.Detector = Periodic
	perAll.Period = 2 * sim.Millisecond
	cases = append(cases, perAll)

	for _, cfg := range cases {
		name := cfg.PolicyName() + "/" + cfg.Detector.String()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Executed != int64(profile.Tasks) {
			t.Errorf("%s: executed %d tasks, want %d", name, res.Executed, profile.Tasks)
		}
		var busy sim.Time
		for _, st := range res.Sim.Nodes {
			busy += st.Busy
		}
		if busy != profile.Work {
			t.Errorf("%s: total busy %v, want %v (work conservation)", name, busy, profile.Work)
		}
		if res.Phases < 2 {
			t.Errorf("%s: only %d system phases", name, res.Phases)
		}
		if res.Nonlocal > res.Executed {
			t.Errorf("%s: nonlocal %d > executed %d", name, res.Nonlocal, res.Executed)
		}
		if res.Time <= 0 {
			t.Errorf("%s: nonpositive time %v", name, res.Time)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := queensCfg(topo.NewMesh(4, 2), Lazy, Any)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Nonlocal != b.Nonlocal || a.Phases != b.Phases ||
		a.Sim.Messages != b.Sim.Messages {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

// TestMultiRoundApp drives a two-round synthetic workload through the
// round barrier logic.
type twoRound struct{}

func (twoRound) Name() string { return "two-round" }
func (twoRound) Rounds() int  { return 2 }
func (twoRound) Roots(r int) []app.Spawn {
	out := make([]app.Spawn, 5*(r+1))
	for i := range out {
		out[i] = app.Spawn{Data: r, Size: 8}
	}
	return out
}
func (twoRound) Execute(data any, emit func(app.Spawn)) sim.Time {
	return sim.Millisecond
}

func TestMultiRoundApp(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(2, 2), App: twoRound{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 15 {
		t.Errorf("executed %d, want 15", res.Executed)
	}
	// Phases: distribute round 0 (1), drains + redistributions, a
	// zero-total phase per round boundary, final zero phase. At least 4.
	if res.Phases < 4 {
		t.Errorf("phases = %d, want >= 4", res.Phases)
	}
}

func TestEmptyApp(t *testing.T) {
	// An app with zero tasks must terminate after one zero-total phase
	// per round.
	cfg := Config{Topo: topo.NewMesh(2, 2), App: dummyApp{}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 0 || res.Phases != 1 {
		t.Errorf("executed=%d phases=%d", res.Executed, res.Phases)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{App: dummyApp{}}); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := Run(Config{Topo: topo.NewMesh(2, 2)}); err == nil {
		t.Error("nil app accepted")
	}
	bad := Config{Topo: topo.NewMesh(2, 2), App: dummyApp{}, Detector: Periodic}
	if _, err := Run(bad); err == nil {
		t.Error("periodic detector without period accepted")
	}
}

func TestLazyBeatsEagerOnPhases(t *testing.T) {
	// Lazy scheduling executes generated tasks without waiting for a
	// system phase, so it needs no more phases than eager (the paper's
	// argument for the one-queue policy).
	mesh := topo.NewMesh(4, 2)
	lazy, err := Run(queensCfg(mesh, Lazy, Any))
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(queensCfg(mesh, Eager, Any))
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Phases > eager.Phases {
		t.Errorf("lazy used %d phases, eager %d — expected lazy <= eager", lazy.Phases, eager.Phases)
	}
}

func TestNonlocalFractionReasonable(t *testing.T) {
	// RIPS should keep most executions local — far better than the
	// ~1-1/N of random placement (Table I's central claim). Disable
	// the ANY init backoff: on this toy workload (70ms of work) a 3ms
	// backoff concentrates generation on few nodes, which is the
	// tradeoff the backoff knob deliberately makes on sparse phases.
	cfg := queensCfg(topo.NewMesh(4, 4), Lazy, Any)
	cfg.InitBackoff = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.Nonlocal) / float64(res.Executed)
	if frac > 0.5 {
		t.Errorf("nonlocal fraction %.2f, want well below random's %.2f", frac, 1-1.0/16)
	}
}

func TestPolicyNames(t *testing.T) {
	c := Config{Local: Lazy, Global: Any}
	if c.PolicyName() != "any-lazy" {
		t.Errorf("PolicyName = %q", c.PolicyName())
	}
	c = Config{Local: Eager, Global: All}
	if c.PolicyName() != "all-eager" {
		t.Errorf("PolicyName = %q", c.PolicyName())
	}
	if Signal.String() != "signal" || Periodic.String() != "periodic" {
		t.Error("detector names wrong")
	}
}

func TestPhaseTotalsCurve(t *testing.T) {
	res, err := Run(queensCfg(topo.NewMesh(4, 4), Lazy, Any))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.PhaseTotals)) != res.Phases {
		t.Fatalf("phase log has %d entries for %d phases", len(res.PhaseTotals), res.Phases)
	}
	if res.PhaseTotals[0] != 1 {
		t.Errorf("first phase saw %d tasks, want the 1 root", res.PhaseTotals[0])
	}
	if last := res.PhaseTotals[len(res.PhaseTotals)-1]; last != 0 {
		t.Errorf("last phase saw %d tasks, want 0 (termination)", last)
	}
	max := 0
	for _, v := range res.PhaseTotals {
		if v > max {
			max = v
		}
	}
	if max < 100 {
		t.Errorf("peak phase total %d — expected the expansion wave", max)
	}
}
