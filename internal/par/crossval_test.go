package par

import (
	"testing"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// Cross-validation: the sequential profiler, the virtual-time
// simulator and the real-parallel backend execute the same task
// decomposition, so the application answer (solution counts, optimal
// puzzle bounds), the task totals and the summed virtual work must be
// bit-identical across backends, worker counts and seeds. This is the
// repo's strongest correctness lever: a lost, duplicated or corrupted
// task anywhere in the parallel protocol shows up as a diverging
// count.

type seqTruth struct {
	tasks  int64
	work   sim.Time
	result int64
}

func measure(t *testing.T, a app.App) seqTruth {
	t.Helper()
	p := app.Measure(a)
	return seqTruth{tasks: int64(p.Tasks), work: p.Work, result: p.Result}
}

func checkPar(t *testing.T, label string, res Result, want seqTruth) {
	t.Helper()
	if res.AppResult != want.result {
		t.Errorf("%s: AppResult = %d, want %d", label, res.AppResult, want.result)
	}
	if res.Generated != want.tasks {
		t.Errorf("%s: Generated = %d, want %d tasks", label, res.Generated, want.tasks)
	}
	if res.Executed != want.tasks {
		t.Errorf("%s: Executed = %d, want %d tasks", label, res.Executed, want.tasks)
	}
	if res.VirtualWork != want.work {
		t.Errorf("%s: VirtualWork = %v, want %v", label, res.VirtualWork, want.work)
	}
}

func checkSim(t *testing.T, label string, res ripsrt.Result, want seqTruth) {
	t.Helper()
	if res.AppResult != want.result {
		t.Errorf("%s: AppResult = %d, want %d", label, res.AppResult, want.result)
	}
	if res.Generated != want.tasks {
		t.Errorf("%s: Generated = %d, want %d tasks", label, res.Generated, want.tasks)
	}
	if res.VirtualWork != want.work {
		t.Errorf("%s: VirtualWork = %v, want %v", label, res.VirtualWork, want.work)
	}
}

// crossValidate runs one app through every backend on a spread of
// worker counts and seeds and checks all of them against the
// sequential ground truth.
func crossValidate(t *testing.T, mk func() app.App) {
	want := measure(t, mk())

	for _, mesh := range []*topo.Mesh{topo.NewMesh(1, 2), topo.NewMesh(2, 2), topo.NewMesh(2, 4)} {
		res, err := Run(Config{Topo: mesh, App: mk()})
		if err != nil {
			t.Fatalf("par RIPS on %s: %v", mesh.Name(), err)
		}
		checkPar(t, "par RIPS on "+mesh.Name(), res, want)

		for _, seed := range []int64{1, 7} {
			res, err := Run(Config{Topo: mesh, App: mk(), Strategy: Steal, Seed: seed})
			if err != nil {
				t.Fatalf("par steal on %s: %v", mesh.Name(), err)
			}
			checkPar(t, "par steal on "+mesh.Name(), res, want)
		}
	}

	// The simulator backend, same meshes as the paper's small end.
	for _, mesh := range []*topo.Mesh{topo.NewMesh(2, 2), topo.NewMesh(2, 4)} {
		sres, err := ripsrt.Run(ripsrt.Config{Topo: mesh, App: mk()})
		if err != nil {
			t.Fatalf("simulator on %s: %v", mesh.Name(), err)
		}
		checkSim(t, "simulator on "+mesh.Name(), sres, want)
	}
}

func TestCrossValidate12Queens(t *testing.T) {
	crossValidate(t, func() app.App { return nqueens.New(12, 4) })
}

func TestCrossValidate13Queens(t *testing.T) {
	if testing.Short() {
		t.Skip("13-Queens cross-validation skipped in -short mode")
	}
	crossValidate(t, func() app.App { return nqueens.New(13, 4) })
}

// TestCrossValidateIDAStar validates the multi-round protocol: IDA*
// runs one globally synchronized round per cost bound, and the number
// of optimal solution paths found in the final round must match
// everywhere. The optimal bound itself is a construction-time property
// (puzzle.New discovers it sequentially), so the assertion that every
// backend executes exactly Rounds() rounds IS the bound agreement.
func TestCrossValidateIDAStar(t *testing.T) {
	if testing.Short() {
		t.Skip("IDA* cross-validation skipped in -short mode")
	}
	cfg1 := puzzle.Configs()[0]
	want := measure(t, cfg1)
	if want.result == 0 {
		t.Fatal("sequential IDA* found no solution paths")
	}

	mesh := topo.NewMesh(2, 2)
	res, err := Run(Config{Topo: mesh, App: cfg1})
	if err != nil {
		t.Fatalf("par RIPS: %v", err)
	}
	checkPar(t, "par RIPS IDA*", res, want)
	// One zero-total phase per round boundary: at least Rounds() phases.
	if res.Phases < int64(cfg1.Rounds()) {
		t.Errorf("par RIPS IDA*: %d phases for %d rounds", res.Phases, cfg1.Rounds())
	}

	sres, err := Run(Config{Topo: topo.NewMesh(2, 4), App: cfg1, Strategy: Steal, Seed: 3})
	if err != nil {
		t.Fatalf("par steal: %v", err)
	}
	checkPar(t, "par steal IDA*", sres, want)

	simres, err := ripsrt.Run(ripsrt.Config{Topo: mesh, App: cfg1})
	if err != nil {
		t.Fatalf("simulator: %v", err)
	}
	checkSim(t, "simulator IDA*", simres, want)
}
