// Benchmarks: one per paper table/figure (each benchmark iteration
// regenerates that experiment at reduced scale — run cmd/ripsbench for
// the full paper-scale output), plus micro-benchmarks of the core
// algorithms and the simulator substrate.
package rips_test

import (
	"math/rand"
	"sync"
	"testing"

	"rips"
	"rips/internal/app"
	"rips/internal/apps/kernels"
	"rips/internal/apps/nqueens"
	"rips/internal/exp"
	"rips/internal/sched/dem"
	"rips/internal/sched/flow"
	"rips/internal/sched/mwa"
	"rips/internal/sim"
	"rips/internal/topo"
)

// benchWorkloads caches the profiled quick workload set across
// benchmarks (profiling re-executes the applications sequentially).
var (
	benchOnce sync.Once
	benchWs   []exp.Workload
)

func quickWorkloads(b *testing.B) []exp.Workload {
	b.Helper()
	benchOnce.Do(func() { benchWs = exp.QuickWorkloads() })
	return benchWs
}

// BenchmarkFig4 regenerates Figure 4's MWA-vs-optimal normalized
// communication cost at one representative point per scale group.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := exp.Fig4([]int{8, 64}, []int{2, 20}, 10, 1)
		for _, p := range pts {
			if p.Normalized < 0 {
				b.Fatal("MWA beat the optimum")
			}
		}
	}
}

// BenchmarkTable1 regenerates a Table I block: one irregular workload
// under all four schedulers on a 16-processor mesh.
func BenchmarkTable1(b *testing.B) {
	ws := quickWorkloads(b)[:1]
	mesh := topo.NewMesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(ws, mesh, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II: sequential profiling and
// optimal-efficiency computation for the workload set.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := exp.NewWorkload(nqueens.New(11, 3), 0.4)
		if e := w.Profile.OptimalEfficiency(32); e <= 0 || e > 1 {
			b.Fatal("bad optimal efficiency")
		}
	}
}

// BenchmarkFig5 regenerates Figure 5: Table I rows plus Table II
// optima combined into normalized quality factors.
func BenchmarkFig5(b *testing.B) {
	ws := quickWorkloads(b)[:1]
	mesh := topo.NewMesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(ws, mesh, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		pts := exp.Fig5(rows, exp.Table2(ws, mesh.Size()))
		if len(pts) != len(rows) {
			b.Fatal("missing quality factors")
		}
	}
}

// BenchmarkTable3 regenerates Table III: speedups across two machine
// sizes for one workload under all schedulers.
func BenchmarkTable3(b *testing.B) {
	ws := quickWorkloads(b)[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table3(ws, []int{8, 16}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyAblation sweeps the four transfer policies plus the
// periodic detector (the design choices behind ANY-Lazy).
func BenchmarkPolicyAblation(b *testing.B) {
	w := exp.NewWorkload(nqueens.New(10, 3), 0.4)
	mesh := topo.NewMesh(4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Ablation(w, mesh, 2*sim.Millisecond, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- micro benches

// BenchmarkMWAPlan measures the pure Mesh Walking Algorithm on a
// 256-node mesh (the paper's largest Figure 4 machine).
func BenchmarkMWAPlan(b *testing.B) {
	mesh := topo.SquarishMesh(256)
	rng := rand.New(rand.NewSource(2))
	load := make([]int, 256)
	for i := range load {
		load[i] = rng.Intn(41)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mwa.Plan(mesh, load); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalFlow measures the min-cost max-flow reference on the
// same instance — the complexity gap that motivates MWA.
func BenchmarkOptimalFlow(b *testing.B) {
	mesh := topo.SquarishMesh(256)
	rng := rand.New(rand.NewSource(2))
	load := make([]int, 256)
	for i := range load {
		load[i] = rng.Intn(41)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Cost(mesh, load); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPingPong measures the simulator's event throughput: one
// iteration is a 1000-message ping-pong between two nodes.
func BenchmarkSimPingPong(b *testing.B) {
	cfg := sim.Config{Topo: topo.NewRing(2), Latency: sim.DefaultLatency(), Seed: 1}
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(cfg, func(n *sim.Node) {
			const rounds = 500
			if n.ID() == 0 {
				for r := 0; r < rounds; r++ {
					n.SendTag(1, 1, nil, 8)
					n.RecvTag(2)
				}
			} else {
				for r := 0; r < rounds; r++ {
					n.RecvTag(1)
					n.SendTag(0, 2, nil, 8)
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRIPSQueens measures a whole RIPS run end to end (the
// library's primary code path).
func BenchmarkRIPSQueens(b *testing.B) {
	a := rips.NQueens(10)
	p := rips.Measure(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rips.RunProfiledContext(b.Context(), a, p, rips.Config{Procs: 16, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupApp measures the registry's hit path — what every
// ripsd submission and cluster attach pays to resolve an app that is
// already built: a lock, a map lookup and an LRU touch, no allocation.
func BenchmarkLookupApp(b *testing.B) {
	if _, err := rips.LookupApp("nq", 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rips.LookupApp("nq", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialProfile measures app.Measure itself on the
// 12-queens search (real computation, no simulation).
func BenchmarkSequentialProfile(b *testing.B) {
	a := nqueens.New(12, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := app.Measure(a)
		if p.Tasks == 0 {
			b.Fatal("empty profile")
		}
	}
}

// BenchmarkTopologies runs the mesh/tree/hypercube RIPS comparison
// (the Section 5 generality claim).
func BenchmarkTopologies(b *testing.B) {
	w := exp.NewWorkload(nqueens.New(10, 3), 0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Topologies(w, 16, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDEMvsMWAOnMesh quantifies Section 5's critique of running
// the Dimension Exchange Method on a mesh: one iteration balances the
// same concentrated load with both schedulers.
func BenchmarkDEMvsMWAOnMesh(b *testing.B) {
	mesh := topo.NewMesh(8, 4)
	rng := rand.New(rand.NewSource(3))
	load := make([]int, 32)
	for i := range load {
		load[i] = rng.Intn(30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dr, err := dem.MeshPlan(mesh, load, 200)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := flow.Cost(mesh, load)
		if err != nil {
			b.Fatal(err)
		}
		if dr.Plan.Cost() <= opt {
			b.Fatal("DEM unexpectedly at/below the optimal transfer count")
		}
	}
}

// BenchmarkTaxonomy measures the Section 1 problem-taxonomy experiment
// at reduced scale.
func BenchmarkTaxonomy(b *testing.B) {
	gauss := kernels.NewGauss(256, 16)
	queens := nqueens.New(10, 3)
	ws := []exp.TaxonomyWorkload{
		{App: gauss, Profile: app.Measure(gauss), Class: "static"},
		{App: queens, Profile: app.Measure(queens), Class: "dynamic"},
	}
	mesh := topo.NewMesh(4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Taxonomy(ws, mesh, 1); err != nil {
			b.Fatal(err)
		}
	}
}
