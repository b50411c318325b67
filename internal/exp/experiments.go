package exp

import (
	"fmt"
	"io"
	"math/rand"

	"rips/internal/app"
	"rips/internal/apps/kernels"
	"rips/internal/apps/nqueens"
	"rips/internal/dynsched"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sched/flow"
	"rips/internal/sched/mwa"
	"rips/internal/sim"
	"rips/internal/topo"
)

// Fig4Point is one data point of Figure 4: the average normalized
// communication cost (C_MWA - C_OPT)/C_OPT over Cases random loads.
type Fig4Point struct {
	Procs, Weight int
	Normalized    float64
	MWACost, Opt  int // summed over the cases
}

// Fig4 reproduces Figure 4: the normalized communication cost of MWA
// against the min-cost-flow optimum, for random loads with the given
// mean weights on MxM / MxM/2 meshes. cases is the number of random
// load vectors per point (the paper uses 100).
func Fig4(procs, weights []int, cases int, seed int64) []Fig4Point {
	rng := rand.New(rand.NewSource(seed))
	var out []Fig4Point
	for _, p := range procs {
		mesh := topo.SquarishMesh(p)
		for _, wt := range weights {
			pt := Fig4Point{Procs: p, Weight: wt}
			for c := 0; c < cases; c++ {
				load := make([]int, p)
				for i := range load {
					load[i] = rng.Intn(2*wt + 1)
				}
				r, err := mwa.Plan(mesh, load)
				if err != nil {
					invariant.Violated("%v", err) // impossible for non-negative loads
				}
				// Optimal routing to the same quotas MWA targets (see
				// flow.CostTo for why not the free-placement optimum).
				opt, err := flow.CostTo(mesh, load, r.Quota)
				if err != nil {
					invariant.Violated("%v", err)
				}
				pt.MWACost += r.Plan.Cost()
				pt.Opt += opt
			}
			if pt.Opt > 0 {
				pt.Normalized = float64(pt.MWACost-pt.Opt) / float64(pt.Opt)
			}
			out = append(out, pt)
		}
	}
	return out
}

// PrintFig4 renders Figure 4 as a text table, one row per machine
// size, one column per mean weight.
func PrintFig4(w io.Writer, pts []Fig4Point) {
	// Collect the axes in encounter order.
	var procs, weights []int
	seenP, seenW := map[int]bool{}, map[int]bool{}
	val := map[[2]int]float64{}
	for _, p := range pts {
		if !seenP[p.Procs] {
			seenP[p.Procs] = true
			procs = append(procs, p.Procs)
		}
		if !seenW[p.Weight] {
			seenW[p.Weight] = true
			weights = append(weights, p.Weight)
		}
		val[[2]int{p.Procs, p.Weight}] = p.Normalized
	}
	fmt.Fprintln(w, "Figure 4: normalized communication cost of MWA vs optimal")
	fmt.Fprintf(w, "%-8s", "procs")
	for _, wt := range weights {
		fmt.Fprintf(w, " w=%-6d", wt)
	}
	fmt.Fprintln(w)
	for _, p := range procs {
		fmt.Fprintf(w, "%-8d", p)
		for _, wt := range weights {
			fmt.Fprintf(w, " %6.1f%%", 100*val[[2]int{p, wt}])
		}
		fmt.Fprintln(w)
	}
}

// Table1 runs every workload under every scheduler on the mesh
// (paper: 8x4 = 32 processors) and returns the rows in paper order.
// When progress is non-nil, each row is streamed to it as it lands.
func Table1(ws []Workload, mesh *topo.Mesh, seed int64, progress io.Writer) ([]metrics.Row, error) {
	var rows []metrics.Row
	for _, w := range ws {
		for _, s := range Schedulers() {
			row, err := RunOne(w, mesh, s, seed)
			if err != nil {
				return rows, fmt.Errorf("%s under %s: %w", w.App.Name(), s, err)
			}
			if progress != nil {
				fmt.Fprintln(progress, row.String())
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintTable1 renders the Table I comparison.
func PrintTable1(w io.Writer, rows []metrics.Row) {
	fmt.Fprintln(w, "Table I: comparison of scheduling algorithms")
	fmt.Fprintf(w, "%-14s %-9s %7s %9s %8s %8s %8s %6s\n",
		"workload", "sched", "tasks", "nonlocal", "Th(s)", "Ti(s)", "T(s)", "eff")
	for _, r := range rows {
		fmt.Fprintln(w, r.String())
	}
}

// Table2 computes the optimal efficiencies (paper Table II) from the
// sequential profiles.
func Table2(ws []Workload, procs int) map[string]float64 {
	out := map[string]float64{}
	for _, w := range ws {
		out[w.App.Name()] = w.Profile.OptimalEfficiency(procs)
	}
	return out
}

// PrintTable2 renders Table II.
func PrintTable2(w io.Writer, ws []Workload, procs int) {
	opt := Table2(ws, procs)
	fmt.Fprintf(w, "Table II: optimal efficiencies on %d processors\n", procs)
	for _, wl := range ws {
		fmt.Fprintf(w, "%-16s %5.1f%%\n", wl.App.Name(), 100*opt[wl.App.Name()])
	}
}

// Fig5Point is one bar of Figure 5: the normalized quality factor of
// one scheduler on one workload.
type Fig5Point struct {
	App     string
	Sched   string
	Quality float64
}

// Fig5 derives the normalized quality factors (muOpt - muRand) /
// (muOpt - muG) from Table I rows and Table II optima.
func Fig5(rows []metrics.Row, opt map[string]float64) []Fig5Point {
	muRand := map[string]float64{}
	for _, r := range rows {
		if r.Sched == SchedRandom.String() {
			muRand[r.App] = r.Eff
		}
	}
	var out []Fig5Point
	for _, r := range rows {
		q := metrics.QualityFactor(opt[r.App], muRand[r.App], r.Eff)
		out = append(out, Fig5Point{App: r.App, Sched: r.Sched, Quality: q})
	}
	return out
}

// PrintFig5 renders Figure 5 as a table plus ASCII bars.
func PrintFig5(w io.Writer, pts []Fig5Point) {
	fmt.Fprintln(w, "Figure 5: normalized quality factors (random = 1.0)")
	for _, p := range pts {
		q := p.Quality
		bar := int(q * 10)
		if bar < 0 {
			bar = 0
		}
		if bar > 60 {
			bar = 60
		}
		fmt.Fprintf(w, "%-16s %-9s %6.2f |%s\n", p.App, p.Sched, q, bars(bar))
	}
}

func bars(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// Table3Row is one Table III entry: a workload's speedup under one
// scheduler at one machine size.
type Table3Row struct {
	App     string
	Sched   string
	Procs   int
	Speedup float64
}

// Table3 reproduces the speedup comparison on larger machines (the
// paper uses 64 and 128 processors with 15-Queens, IDA* configuration
// #3 and GROMOS 16A). IDA* uses the paper's large-machine RID tuning.
func Table3(ws []Workload, sizes []int, seed int64) ([]Table3Row, error) {
	var out []Table3Row
	for _, w := range ws {
		for _, n := range sizes {
			mesh := topo.SquarishMesh(n)
			for _, s := range Schedulers() {
				row, err := RunOne(w, mesh, s, seed)
				if err != nil {
					return out, fmt.Errorf("%s under %s on %d: %w", w.App.Name(), s, n, err)
				}
				out = append(out, Table3Row{
					App:     w.App.Name(),
					Sched:   s.String(),
					Procs:   n,
					Speedup: metrics.Speedup(w.Profile.Work, row.Time),
				})
			}
		}
	}
	return out, nil
}

// PrintTable3 renders Table III.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "Table III: speedup comparison")
	fmt.Fprintf(w, "%-16s %-9s %6s %8s\n", "workload", "sched", "procs", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-9s %6d %8.1f\n", r.App, r.Sched, r.Procs, r.Speedup)
	}
}

// AblationRow is one transfer-policy variant's outcome.
type AblationRow struct {
	Policy string
	Time   sim.Time
	Eff    float64
	Phases int64
}

// Ablation compares the four ANY/ALL x eager/lazy transfer policies
// plus the periodic detector on one workload — the design-space sweep
// behind the paper's statement that ANY-Lazy is the best combination.
func Ablation(w Workload, mesh *topo.Mesh, period sim.Time, seed int64) ([]AblationRow, error) {
	type variant struct {
		name     string
		local    ripsrt.LocalPolicy
		global   ripsrt.GlobalPolicy
		detector ripsrt.Detector
		eureka   bool
	}
	variants := []variant{
		{"any-lazy", ripsrt.Lazy, ripsrt.Any, ripsrt.Signal, false},
		{"any-eager", ripsrt.Eager, ripsrt.Any, ripsrt.Signal, false},
		{"all-lazy", ripsrt.Lazy, ripsrt.All, ripsrt.Signal, false},
		{"all-eager", ripsrt.Eager, ripsrt.All, ripsrt.Signal, false},
		{"any-lazy periodic", ripsrt.Lazy, ripsrt.Any, ripsrt.Periodic, false},
		{"any-lazy eureka", ripsrt.Lazy, ripsrt.Any, ripsrt.Signal, true},
	}
	var out []AblationRow
	for _, v := range variants {
		cfg := ripsrt.Config{
			Topo:     mesh,
			App:      w.App,
			Local:    v.local,
			Global:   v.global,
			Detector: v.detector,
			Eureka:   v.eureka,
			Seed:     seed,
		}
		if v.detector == ripsrt.Periodic {
			cfg.Period = period
		}
		res, err := ripsrt.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("policy %s: %w", v.name, err)
		}
		out = append(out, AblationRow{
			Policy: v.name,
			Time:   res.Time,
			Eff:    metrics.Efficiency(w.Profile.Work, mesh.Size(), res.Time),
			Phases: res.Phases,
		})
	}
	return out, nil
}

// PrintAblation renders the policy ablation.
func PrintAblation(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Transfer-policy ablation (paper Section 2 / ref [24])")
	fmt.Fprintf(w, "%-18s %8s %6s %7s\n", "policy", "T(s)", "eff", "phases")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8.2f %5.0f%% %7d\n", r.Policy, r.Time.Seconds(), 100*r.Eff, r.Phases)
	}
}

// TopologyRow is one machine-topology variant's outcome under RIPS.
type TopologyRow struct {
	Topology string
	Time     sim.Time
	Eff      float64
	Nonlocal int64
	Migrated int64
	Phases   int64
}

// Topologies runs the same workload under RIPS on a mesh, a binary
// tree and a hypercube of n processors (n must be a power of two) —
// the generality claim of the paper's Section 5 / ref [32]. The mesh
// uses the Mesh Walking Algorithm, the tree the Tree Walking
// Algorithm, and the hypercube incremental Dimension Exchange, so the
// comparison also exposes DEM's redundant communication.
func Topologies(w Workload, n int, seed int64) ([]TopologyRow, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("exp: topology comparison needs a power-of-two size, got %d", n)
	}
	d := 0
	for 1<<d < n {
		d++
	}
	machines := []struct {
		name  string
		t     topo.Topology
		exact bool
	}{
		{"mesh", topo.SquarishMesh(n), false},
		{"tree", topo.NewTree(n), false},
		{"hypercube-dem", topo.NewHypercube(d), false},
		{"hypercube-cwa", topo.NewHypercube(d), true},
	}
	var out []TopologyRow
	for _, m := range machines {
		res, err := ripsrt.Run(ripsrt.Config{Topo: m.t, App: w.App, ExactCube: m.exact, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("rips on %s: %w", m.t.Name(), err)
		}
		out = append(out, TopologyRow{
			Topology: m.name,
			Time:     res.Time,
			Eff:      metrics.Efficiency(w.Profile.Work, n, res.Time),
			Nonlocal: res.Nonlocal,
			Migrated: res.Migrated,
			Phases:   res.Phases,
		})
	}
	return out, nil
}

// PrintTopologies renders the topology comparison.
func PrintTopologies(w io.Writer, rows []TopologyRow) {
	fmt.Fprintln(w, "RIPS across machine topologies (Section 5 / ref [32])")
	fmt.Fprintf(w, "%-14s %8s %6s %9s %10s %7s\n", "topology", "T(s)", "eff", "nonlocal", "task-links", "phases")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8.2f %5.0f%% %9d %10d %7d\n",
			r.Topology, r.Time.Seconds(), 100*r.Eff, r.Nonlocal, r.Migrated, r.Phases)
	}
}

// TaxonomyRow is one cell of the problem-taxonomy experiment.
type TaxonomyRow struct {
	App   string
	Class string // "static" or "dynamic", per the paper's Section 1
	Sched string
	Time  sim.Time
	Eff   float64
}

// Taxonomy turns the paper's Section 1 argument into a measurement:
// static problems (Gaussian elimination, FFT — predictable structure)
// are served perfectly well by a compile-time block distribution with
// no runtime balancing, while dynamic problems (multigrid's collapsing
// parallelism, N-Queens' irregular tree, GROMOS's nonuniform density)
// need a runtime scheduler — and RIPS recovers what static scheduling
// loses on them.
func Taxonomy(ws []TaxonomyWorkload, mesh *topo.Mesh, seed int64) ([]TaxonomyRow, error) {
	var out []TaxonomyRow
	for _, w := range ws {
		for _, s := range []struct {
			name  string
			strat func() dynsched.Strategy
		}{
			{"static", dynsched.NewStatic()},
			{"random", dynsched.NewRandom()},
		} {
			res, err := dynsched.Run(dynsched.Config{Topo: mesh, App: w.App, Strategy: s.strat, Seed: seed})
			if err != nil {
				return out, fmt.Errorf("%s under %s: %w", w.App.Name(), s.name, err)
			}
			out = append(out, TaxonomyRow{
				App: w.App.Name(), Class: w.Class, Sched: s.name,
				Time: res.Time, Eff: metrics.Efficiency(w.Profile.Work, mesh.Size(), res.Time),
			})
		}
		res, err := ripsrt.Run(ripsrt.Config{Topo: mesh, App: w.App, Seed: seed})
		if err != nil {
			return out, fmt.Errorf("%s under rips: %w", w.App.Name(), err)
		}
		out = append(out, TaxonomyRow{
			App: w.App.Name(), Class: w.Class, Sched: "rips",
			Time: res.Time, Eff: metrics.Efficiency(w.Profile.Work, mesh.Size(), res.Time),
		})
	}
	return out, nil
}

// TaxonomyWorkload tags a workload with the paper's problem class.
type TaxonomyWorkload struct {
	App     app.App
	Profile app.Profile
	Class   string
}

// TaxonomyWorkloads returns the default taxonomy set: two static
// kernels, the multigrid V-cycle, and an irregular search. Kernel
// sizes are chosen so per-round work dominates the per-round global
// synchronization, as any practitioner would choose them.
func TaxonomyWorkloads() []TaxonomyWorkload {
	gauss := kernels.NewGauss(2048, 64)
	fft := kernels.NewFFT(20, 8192)
	mg := kernels.NewMultigrid(2048, 6, 64)
	queens := nqueens.New(12, 4)
	return []TaxonomyWorkload{
		{App: gauss, Profile: app.Measure(gauss), Class: "static"},
		{App: fft, Profile: app.Measure(fft), Class: "static"},
		{App: mg, Profile: app.Measure(mg), Class: "dynamic"},
		{App: queens, Profile: app.Measure(queens), Class: "dynamic"},
	}
}

// PrintTaxonomy renders the taxonomy table.
func PrintTaxonomy(w io.Writer, rows []TaxonomyRow) {
	fmt.Fprintln(w, "Problem taxonomy (paper Section 1): static vs dynamic problems")
	fmt.Fprintf(w, "%-16s %-8s %-8s %8s %6s\n", "workload", "class", "sched", "T(s)", "eff")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-8s %-8s %8.3f %5.0f%%\n", r.App, r.Class, r.Sched, r.Time.Seconds(), 100*r.Eff)
	}
}
