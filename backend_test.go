package rips_test

import (
	"testing"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/par"
	"rips/internal/ripsrt"
	"rips/internal/topo"
)

// TestParallelBackend runs the real shared-memory backend through the
// public facade and checks the wall-clock measures and the exactness
// of the answer.
func TestParallelBackend(t *testing.T) {
	a := rips.NQueens(10)
	p := rips.Measure(a)
	for _, alg := range []rips.Algorithm{rips.RIPS, rips.Steal} {
		res, err := rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 4, Backend: rips.Parallel, Algorithm: alg, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Tasks != int64(p.Tasks) {
			t.Errorf("%v: tasks %d, want %d", alg, res.Tasks, p.Tasks)
		}
		if res.AppResult != p.Result {
			t.Errorf("%v: AppResult %d, want %d solutions", alg, res.AppResult, p.Result)
		}
		if res.Wall <= 0 {
			t.Errorf("%v: Wall = %v", alg, res.Wall)
		}
		if res.Time != 0 {
			t.Errorf("%v: virtual Time = %v on the Parallel backend", alg, res.Time)
		}
		if res.Efficiency <= 0 || res.Efficiency > 1 {
			t.Errorf("%v: efficiency %v", alg, res.Efficiency)
		}
		if alg == rips.RIPS && res.Phases < 1 {
			t.Errorf("RIPS: phases %d", res.Phases)
		}
	}
}

// TestHybridBackend runs the hierarchical backend through the public
// facade: exact answer, resolved domain count, wall-clock measures.
func TestHybridBackend(t *testing.T) {
	a := rips.NQueens(10)
	p := rips.Measure(a)
	res, err := rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 4, Backend: rips.Hybrid, Domains: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != int64(p.Tasks) || res.AppResult != p.Result {
		t.Errorf("tasks %d result %d, want %d and %d", res.Tasks, res.AppResult, p.Tasks, p.Result)
	}
	if res.Domains != 2 {
		t.Errorf("Domains = %d, want the explicit 2", res.Domains)
	}
	if res.Phases < 1 || res.Wall <= 0 || res.Time != 0 {
		t.Errorf("phases=%d wall=%v virtual=%v", res.Phases, res.Wall, res.Time)
	}

	// Domains zero auto-detects and reports what it resolved to.
	res, err = rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 4, Backend: rips.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if res.Domains < 1 || res.Domains > 4 {
		t.Errorf("auto-detected Domains = %d, want in [1, 4]", res.Domains)
	}
	if res.AppResult != p.Result {
		t.Errorf("auto-domain AppResult = %d, want %d", res.AppResult, p.Result)
	}
}

// TestParallelBackendPolicyKnobs exercises the Eager/All knobs on the
// real backends.
func TestParallelBackendPolicyKnobs(t *testing.T) {
	a := rips.NQueens(9)
	for _, cfg := range []rips.Config{
		{Procs: 4, Backend: rips.Parallel, Eager: true},
		{Procs: 4, Backend: rips.Parallel, All: true},
		{Procs: 7, Backend: rips.Parallel, Topology: "tree"},
		{Procs: 8, Backend: rips.Parallel, Topology: "hypercube"},
		{Procs: 4, Backend: rips.Hybrid, Domains: 2, Eager: true},
		{Procs: 4, Backend: rips.Hybrid, Domains: 2, All: true},
		{Procs: 7, Backend: rips.Hybrid, Domains: 2, Topology: "tree"},
		{Procs: 8, Backend: rips.Hybrid, Domains: 2, Topology: "hypercube"},
	} {
		res, err := rips.RunContext(t.Context(), a, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Phases < 1 {
			t.Errorf("%+v: phases %d", cfg, res.Phases)
		}
	}
}

// TestParallelBackendErrors pins the invalid backend/algorithm combos.
func TestParallelBackendErrors(t *testing.T) {
	a := rips.NQueens(8)
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 4, Algorithm: rips.Steal}); err == nil {
		t.Error("steal on the simulator accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 4, Backend: rips.Parallel, Algorithm: rips.Random}); err == nil {
		t.Error("random baseline on the Parallel backend accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 4, Backend: rips.Hybrid, Algorithm: rips.Steal}); err == nil {
		t.Error("steal algorithm on the Hybrid backend accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 4, Backend: rips.Parallel, Domains: 2}); err == nil {
		t.Error("Domains on the Parallel backend accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 4, Domains: -1, Backend: rips.Hybrid}); err == nil {
		t.Error("negative Domains accepted")
	}
}

// TestZeroBackoffTerminates is the regression test for the detector
// throttles: with the backoff disabled entirely (negative = zero
// wait), both engines must still terminate with the right answer —
// the phase-indexed transfer requests guarantee progress even when
// every drained node initiates instantly. The throttles are engine
// knobs (ripsrt.Config.InitBackoff, par.Config.DetectInterval), not
// rips.Config fields, so the test drives the engines directly.
func TestZeroBackoffTerminates(t *testing.T) {
	a := nqueens.New(9, 4)
	p := app.Measure(a)
	mesh := topo.NewMesh(2, 4)

	res, err := ripsrt.Run(ripsrt.Config{Topo: mesh, App: a, InitBackoff: -1})
	if err != nil {
		t.Fatalf("simulate with zero backoff: %v", err)
	}
	if res.Executed != int64(p.Tasks) {
		t.Errorf("simulate with zero backoff: tasks %d, want %d", res.Executed, p.Tasks)
	}
	// Zero backoff means more (emptier) phases, never fewer tasks.
	thr, err := ripsrt.Run(ripsrt.Config{Topo: mesh, App: a})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases < thr.Phases {
		t.Errorf("zero backoff ran %d phases, throttled ran %d", res.Phases, thr.Phases)
	}

	pres, err := par.Run(par.Config{Topo: topo.NewMesh(2, 2), App: a, DetectInterval: -time.Nanosecond})
	if err != nil {
		t.Fatalf("parallel with zero detect interval: %v", err)
	}
	if pres.Executed != int64(p.Tasks) || pres.AppResult != p.Result {
		t.Errorf("parallel with zero detect interval: tasks %d result %d, want %d and %d",
			pres.Executed, pres.AppResult, p.Tasks, p.Result)
	}
}

func TestBackendStrings(t *testing.T) {
	if rips.Simulate.String() != "simulate" || rips.Parallel.String() != "parallel" || rips.Hybrid.String() != "hybrid" {
		t.Fatalf("Backend strings = %q, %q, %q", rips.Simulate.String(), rips.Parallel.String(), rips.Hybrid.String())
	}
	if rips.Steal.String() != "steal" {
		t.Fatalf("Steal.String() = %q", rips.Steal.String())
	}
}
