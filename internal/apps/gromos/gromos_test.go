package gromos

import (
	"testing"

	"rips/internal/app"
)

func TestTaskCountMatchesPaper(t *testing.T) {
	a := New(8)
	p := app.Measure(a)
	if p.Tasks != NumGroups || NumGroups != 4986 {
		t.Errorf("tasks = %d, want 4986", p.Tasks)
	}
	if a.Rounds() != 1 {
		t.Errorf("Rounds = %d", a.Rounds())
	}
}

func TestGroupsPartitionAtoms(t *testing.T) {
	a := New(8)
	covered := 0
	prevEnd := int32(0)
	for _, g := range a.groups {
		if g[0] != prevEnd {
			t.Fatalf("group gap: starts at %d after %d", g[0], prevEnd)
		}
		if g[1] <= g[0] {
			t.Fatalf("empty group %v", g)
		}
		covered += int(g[1] - g[0])
		prevEnd = g[1]
	}
	if covered != NumAtoms {
		t.Errorf("groups cover %d atoms, want %d", covered, NumAtoms)
	}
}

func TestWorkGrowsWithCutoff(t *testing.T) {
	w8 := app.Measure(New(8)).Work
	w12 := app.Measure(New(12)).Work
	w16 := app.Measure(New(16)).Work
	if !(w8 < w12 && w12 < w16) {
		t.Fatalf("work not increasing with cutoff: %v %v %v", w8, w12, w16)
	}
	// The paper's execution times scale roughly 1 : 3 : 6.3 across
	// cutoffs; require at least superlinear growth in the surrogate.
	if float64(w16) < 3.5*float64(w8) {
		t.Errorf("16A work (%v) should be several times 8A work (%v)", w16, w8)
	}
}

func TestDeterministic(t *testing.T) {
	a, b := New(12), New(12)
	for g := int32(0); g < 50; g++ {
		task := pack(g)
		if a.Execute(&task, nil) != b.Execute(&task, nil) {
			t.Fatalf("group %d work differs between constructions", g)
		}
	}
}

func TestDensityNonuniform(t *testing.T) {
	// The whole reason the paper needs load balancing for GROMOS:
	// computation density varies across processes.
	if skew := New(8).DensitySkew(); skew < 1.5 {
		t.Errorf("density skew = %.2f, want >= 1.5 (nonuniform load)", skew)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	// Pair counting must be symmetric: total over all atoms is even.
	if p := New(8).TotalPairs(); p%2 != 0 {
		t.Errorf("total pair-end count %d is odd", p)
	}
}

func TestNeighborsBruteForceSpotCheck(t *testing.T) {
	a := New(10)
	r2 := a.cutoff * a.cutoff
	for _, i := range []int32{0, 123, 4567, NumAtoms - 1} {
		want := 0
		p := a.pos[i]
		for j := int32(0); j < NumAtoms; j++ {
			if j == i {
				continue
			}
			q := a.pos[j]
			d := (p.x-q.x)*(p.x-q.x) + (p.y-q.y)*(p.y-q.y) + (p.z-q.z)*(p.z-q.z)
			if d <= r2 {
				want++
			}
		}
		if got := a.neighbors(i); got != want {
			t.Errorf("neighbors(%d) = %d, brute force = %d", i, got, want)
		}
	}
}

func TestNoChildrenEmitted(t *testing.T) {
	a := New(8)
	emitted := 0
	task := pack(0)
	a.Execute(&task, func(app.Spawn) { emitted++ })
	if emitted != 0 {
		t.Errorf("static task emitted %d children", emitted)
	}
}

func TestConfigs(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 3 {
		t.Fatalf("%d configs", len(cfgs))
	}
	names := []string{"gromos 8A", "gromos 12A", "gromos 16A"}
	for i, a := range cfgs {
		if a.Name() != names[i] {
			t.Errorf("config %d name = %q", i, a.Name())
		}
	}
}

func TestNewPanicsOnBadCutoff(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// TestCounted checks the app.Counted contract: ExecuteCount must agree
// with Execute on virtual time, and the aggregate over all charge
// groups must be exactly TotalPairs — the groups partition the atoms,
// so each atom's neighbor count is summed exactly once.
func TestCounted(t *testing.T) {
	a := New(8)
	if _, ok := app.App(a).(app.Counted); !ok {
		t.Fatal("gromos does not implement app.Counted")
	}
	var total int64
	for g := int32(0); g < NumGroups; g++ {
		task := pack(g)
		w, pairs := a.ExecuteCount(&task, nil)
		if we := a.Execute(&task, nil); we != w {
			t.Fatalf("group %d: Execute work %v != ExecuteCount work %v", g, we, w)
		}
		total += pairs
	}
	if want := int64(a.TotalPairs()); total != want {
		t.Errorf("summed pair count = %d, want TotalPairs = %d", total, want)
	}
	if p := app.Measure(a); p.Result != total {
		t.Errorf("Measure Result = %d, want %d", p.Result, total)
	}
}
