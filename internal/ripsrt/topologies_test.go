package ripsrt

import (
	"math/rand"
	"testing"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/collective"
	"rips/internal/sched/cubewalk"
	"rips/internal/sched/dem"
	"rips/internal/sched/treewalk"
	"rips/internal/sim"
	"rips/internal/task"
	"rips/internal/topo"
)

// phaseOn runs a single white-box system phase with the given loads
// and returns the per-node final counts plus the migrated counter.
func phaseOn(t *testing.T, machine topo.Topology, w []int) ([]int, int64) {
	t.Helper()
	cfg := Config{Topo: machine, App: dummyApp{}}
	final := make([]int, machine.Size())
	sr, err := sim.Run(sim.Config{Topo: machine, Latency: sim.DefaultLatency(), Seed: 3}, func(n *sim.Node) {
		st := &nodeState{
			n:     n,
			cfg:   &cfg,
			sched: newPhaseScheduler(machine, n.ID(), false),
			comm:  &collective.Comm{Node: n, TagBase: tagColl},
		}
		for k := 0; k < w[n.ID()]; k++ {
			st.rts.PushBack(task.Task{ID: st.newID(), Origin: n.ID(), Size: 16})
		}
		st.systemPhase()
		final[n.ID()] = st.rte.Len()
	})
	if err != nil {
		t.Fatalf("%s w=%v: %v", machine.Name(), w, err)
	}
	return final, sr.Counters[CounterMigrated]
}

// TestTreePhaseMatchesPureTWA: a tree system phase must land exactly
// on the pure Tree Walking Algorithm's quotas and transfer count.
func TestTreePhaseMatchesPureTWA(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for _, size := range []int{1, 2, 3, 7, 15, 20, 31} {
		tree := topo.NewTree(size)
		for trial := 0; trial < 10; trial++ {
			w := make([]int, size)
			for i := range w {
				w[i] = rng.Intn(15)
			}
			pure, err := treewalk.Plan(tree, w)
			if err != nil {
				t.Fatal(err)
			}
			final, migrated := phaseOn(t, tree, w)
			for id := range final {
				if final[id] != pure.Quota[id] {
					t.Fatalf("tree %d w=%v: node %d got %d, pure TWA says %d",
						size, w, id, final[id], pure.Quota[id])
				}
			}
			if migrated != int64(pure.Plan.Cost()) {
				t.Fatalf("tree %d w=%v: migrated %d, pure TWA cost %d", size, w, migrated, pure.Plan.Cost())
			}
		}
	}
}

// TestCubePhaseMatchesPureDEM: a hypercube system phase performs
// exactly one Dimension Exchange sweep.
func TestCubePhaseMatchesPureDEM(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, dim := range []int{0, 1, 2, 3, 4, 5} {
		cube := topo.NewHypercube(dim)
		for trial := 0; trial < 10; trial++ {
			w := make([]int, cube.Size())
			for i := range w {
				w[i] = rng.Intn(15)
			}
			pure, err := dem.Plan(cube, w)
			if err != nil {
				t.Fatal(err)
			}
			final, migrated := phaseOn(t, cube, w)
			for id := range final {
				if final[id] != pure.Final[id] {
					t.Fatalf("cube %d w=%v: node %d got %d, pure DEM says %d",
						dim, w, id, final[id], pure.Final[id])
				}
			}
			if migrated != int64(pure.Plan.Cost()) {
				t.Fatalf("cube %d w=%v: migrated %d, pure DEM cost %d", dim, w, migrated, pure.Plan.Cost())
			}
		}
	}
}

// TestRIPSOnAllTopologies: whole runs complete with work conservation
// on tree and hypercube machines, under several policies.
func TestRIPSOnAllTopologies(t *testing.T) {
	a := nqueens.New(10, 3)
	profile := app.Measure(a)
	machines := []topo.Topology{
		topo.NewTree(15), topo.NewTree(16),
		topo.NewHypercube(3), topo.NewHypercube(4),
	}
	for _, machine := range machines {
		for _, global := range []GlobalPolicy{Any, All} {
			cfg := Config{Topo: machine, App: a, Global: global, Seed: 4}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", machine.Name(), global, err)
			}
			if res.Executed != int64(profile.Tasks) {
				t.Errorf("%s/%v: executed %d, want %d", machine.Name(), global, res.Executed, profile.Tasks)
			}
			var busy sim.Time
			for _, st := range res.Sim.Nodes {
				busy += st.Busy
			}
			if busy != profile.Work {
				t.Errorf("%s/%v: busy %v, want %v", machine.Name(), global, busy, profile.Work)
			}
		}
	}
}

func TestTopoValidation(t *testing.T) {
	if _, err := Run(Config{Topo: topo.NewRing(4), App: dummyApp{}}); err == nil {
		t.Error("unsupported topology accepted")
	}
	if _, err := Run(Config{App: dummyApp{}}); err == nil {
		t.Error("missing topology accepted")
	}
}

// TestCubeBalanceWithinDimension: after one cube phase, the spread is
// bounded by the dimension (DEM's guarantee), not by one.
func TestCubeBalanceWithinDimension(t *testing.T) {
	cube := topo.NewHypercube(4)
	w := make([]int, 16)
	w[0] = 160
	final, _ := phaseOn(t, cube, w)
	lo, hi := final[0], final[0]
	for _, f := range final {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo > 4 {
		t.Errorf("spread %d exceeds cube dimension", hi-lo)
	}
}

// TestEurekaPolicy: the hardware or-barrier variant of ANY completes
// with identical task accounting and fewer software messages.
func TestEurekaPolicy(t *testing.T) {
	a := nqueens.New(10, 3)
	profile := app.Measure(a)
	soft, err := Run(Config{Topo: topo.NewMesh(4, 4), App: a, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Run(Config{Topo: topo.NewMesh(4, 4), App: a, Seed: 2, Eureka: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []Result{soft, hard} {
		if res.Executed != int64(profile.Tasks) {
			t.Errorf("executed %d, want %d", res.Executed, profile.Tasks)
		}
	}
	if hard.Time <= 0 {
		t.Error("eureka run has no time")
	}
}

// TestCubeWalkPhaseMatchesPureCWA: the exact hypercube system phase
// must land exactly on the pure Cube Walking Algorithm's quotas.
func TestCubeWalkPhaseMatchesPureCWA(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, dim := range []int{0, 1, 2, 3, 4, 5} {
		cube := topo.NewHypercube(dim)
		for trial := 0; trial < 10; trial++ {
			w := make([]int, cube.Size())
			for i := range w {
				w[i] = rng.Intn(15)
			}
			pure, err := cubewalk.Plan(cube, w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Topo: cube, App: dummyApp{}, ExactCube: true}
			final := make([]int, cube.Size())
			_, err = sim.Run(sim.Config{Topo: cube, Latency: sim.DefaultLatency(), Seed: 3}, func(n *sim.Node) {
				st := &nodeState{
					n:     n,
					cfg:   &cfg,
					sched: newPhaseScheduler(cube, n.ID(), true),
					comm:  &collective.Comm{Node: n, TagBase: tagColl},
				}
				for k := 0; k < w[n.ID()]; k++ {
					st.rts.PushBack(task.Task{ID: st.newID(), Origin: n.ID(), Size: 16})
				}
				st.systemPhase()
				final[n.ID()] = st.rte.Len()
			})
			if err != nil {
				t.Fatalf("cube %d w=%v: %v", dim, w, err)
			}
			for id := range final {
				if final[id] != pure.Quota[id] {
					t.Fatalf("cube %d w=%v: node %d got %d, pure CWA says %d",
						dim, w, id, final[id], pure.Quota[id])
				}
			}
		}
	}
}

// TestExactCubeFullRun: whole runs complete under the exact cube phase.
func TestExactCubeFullRun(t *testing.T) {
	a := nqueens.New(10, 3)
	profile := app.Measure(a)
	res, err := Run(Config{Topo: topo.NewHypercube(4), App: a, ExactCube: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != int64(profile.Tasks) {
		t.Errorf("executed %d, want %d", res.Executed, profile.Tasks)
	}
}
