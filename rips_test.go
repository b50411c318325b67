package rips_test

import (
	"math/rand"
	"testing"

	"rips"
)

func TestRunNQueensAllAlgorithms(t *testing.T) {
	a := rips.NQueens(10)
	p := rips.Measure(a)
	for _, alg := range []rips.Algorithm{rips.RIPS, rips.Random, rips.Gradient, rips.RID} {
		res, err := rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 16, Algorithm: alg, Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Tasks != int64(p.Tasks) {
			t.Errorf("%v: tasks %d, want %d", alg, res.Tasks, p.Tasks)
		}
		if res.Efficiency <= 0 || res.Efficiency > 1 {
			t.Errorf("%v: efficiency %v", alg, res.Efficiency)
		}
		if res.Speedup <= 1 {
			t.Errorf("%v: speedup %v", alg, res.Speedup)
		}
		if res.SeqTime != p.Work {
			t.Errorf("%v: SeqTime %v, want %v", alg, res.SeqTime, p.Work)
		}
	}
}

func TestRIPSPolicyKnobs(t *testing.T) {
	a := rips.NQueens(9)
	for _, cfg := range []rips.Config{
		{Procs: 8},
		{Procs: 8, Eager: true},
		{Procs: 8, All: true},
		{Procs: 8, Eager: true, All: true},
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

func TestExplicitMeshShape(t *testing.T) {
	a := rips.NQueens(8)
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Rows: 2, Cols: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Rows: 2}); err == nil {
		t.Error("half-specified shape accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 16, Algorithm: rips.Algorithm(99)}); err == nil {
		t.Error("bad algorithm accepted")
	}
}

func TestBalanceMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		load := make([]int, 32)
		for i := range load {
			load[i] = rng.Intn(20)
		}
		r, err := rips.BalanceMesh(8, 4, load)
		if err != nil {
			t.Fatal(err)
		}
		// Apply moves and verify the quota is reached.
		cur := append([]int(nil), load...)
		for _, m := range r.Moves {
			cur[m.From] -= m.Count
			cur[m.To] += m.Count
			if cur[m.From] < 0 {
				t.Fatalf("move drives node %d negative", m.From)
			}
		}
		for i := range cur {
			if cur[i] != r.Quota[i] {
				t.Fatalf("node %d: %d != quota %d", i, cur[i], r.Quota[i])
			}
		}
		opt, err := rips.OptimalCost(8, 4, load)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cost < opt {
			t.Fatalf("MWA cost %d below optimal %d", r.Cost, opt)
		}
		if r.Steps != 3*(8+4) {
			t.Fatalf("Steps = %d", r.Steps)
		}
	}
}

func TestBalanceMeshErrors(t *testing.T) {
	if _, err := rips.BalanceMesh(2, 2, []int{1}); err == nil {
		t.Error("bad length accepted")
	}
	if _, err := rips.OptimalCost(2, 2, []int{1, -1, 0, 0}); err == nil {
		t.Error("negative load accepted")
	}
}

func TestRIPSBeatsRandomOnLocality(t *testing.T) {
	a := rips.NQueens(11)
	p := rips.Measure(a)
	rr, err := rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 16, Algorithm: rips.RIPS})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := rips.RunProfiledContext(t.Context(), a, p, rips.Config{Procs: 16, Algorithm: rips.Random})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Nonlocal >= rnd.Nonlocal {
		t.Errorf("RIPS nonlocal %d >= random %d", rr.Nonlocal, rnd.Nonlocal)
	}
}

func TestBuiltinWorkloadConstructors(t *testing.T) {
	if got := rips.NQueens(12).Name(); got != "12-queens" {
		t.Errorf("NQueens name = %q", got)
	}
	if got := rips.MolecularDynamics(12).Name(); got != "gromos 12A" {
		t.Errorf("MolecularDynamics name = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Puzzle15(0) did not panic")
		}
	}()
	rips.Puzzle15(0)
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[rips.Algorithm]string{
		rips.RIPS: "rips", rips.Random: "random",
		rips.Gradient: "gradient", rips.RID: "rid",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
}

func TestTopologies(t *testing.T) {
	a := rips.NQueens(9)
	for _, topoName := range []string{"mesh", "tree", "hypercube"} {
		res, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 16, Topology: topoName, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", topoName, err)
		}
		if res.Tasks == 0 || res.Efficiency <= 0 {
			t.Errorf("%s: %+v", topoName, res)
		}
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 12, Topology: "hypercube"}); err == nil {
		t.Error("non-power-of-two hypercube accepted")
	}
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 16, Topology: "torus"}); err == nil {
		t.Error("unknown topology accepted")
	}
	// Baselines also run on the alternative machines.
	if _, err := rips.RunContext(t.Context(), a, rips.Config{Procs: 15, Topology: "tree", Algorithm: rips.RID}); err != nil {
		t.Errorf("RID on tree: %v", err)
	}
}
