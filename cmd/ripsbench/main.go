// Command ripsbench regenerates the paper's evaluation: Figure 4
// (MWA vs optimal communication cost), Table I (scheduler comparison
// on 32 processors), Table II (optimal efficiencies), Figure 5
// (normalized quality factors), Table III (speedups on 64 and 128
// processors), the transfer-policy ablation, and the Section 4
// narrative detail for 15-Queens.
//
// Usage:
//
//	ripsbench [-quick] [-seed N] [-cases N] <experiment>
//
// where experiment is one of: fig4, table1, table2, fig5, table3,
// ablation, detail, all. -quick substitutes reduced workloads and
// machine sizes so everything completes in seconds.
//
// The parscale experiment is different in kind: it runs the workload
// for real on the shared-memory parallel backend (internal/par) and
// reports the wall-clock scaling curve, RIPS next to Chase-Lev work
// stealing. It takes its own trailing flags:
//
//	ripsbench parscale [-app nq|ida|gromos] [-n N] [-reps N] [-smoke] [-json FILE]
//
// where -n is the family's size knob (board for nq, paper
// configuration 1-3 for ida, cutoff in angstroms for gromos; 0 picks
// the family default), so the paper's Table I workload contrast can be
// replayed on real cores. -json additionally writes the machine-readable
// BENCH_par.json trajectory: the full curve plus a serial-vs-parallel
// plan-application comparison of the system-phase cost on a 16-worker
// mesh (see internal/exp.ParScaleJSON for the schema).
//
// The difftest experiment is the differential cross-validation
// harness: it samples configurations from the app x topology x policy
// x seed lattice and runs each on every backend (simulator, parallel
// RIPS, work stealing), requiring bit-identical answers and task
// totals, with per-phase invariant checks promoted to hard failures:
//
//	ripsbench difftest [-n N] [-seed N] [-smoke] [-config "..."]
//
// -config re-runs one configuration verbatim (the form failures are
// printed in); otherwise -n configurations are sampled from -seed, and
// -smoke restricts the pool to the cheap seven-app set CI gates on.
//
// The lattice experiment reuses the same configuration lattice as a
// performance probe grid (see internal/perfreg): each point is run on
// all three backends and its scheduling metrics are recorded, the
// deterministic simulator quantities exactly and the real-parallel
// ones advisorily. Against the committed BENCH_lattice.json baseline,
// any exact drift fails the command and prints a minimal reproducer:
//
//	ripsbench lattice [-smoke] [-baseline FILE] [-update] [-n N]
//	                  [-seed N] [-json FILE] [-config "..."]
//
// The default mode re-measures the baseline's own probe points and
// compares; -update regenerates the baseline from a fresh sample;
// -config measures one point verbatim (the form drifts are printed
// in).
//
// The serve experiment is the multi-tenant load generator: it drives
// a live ripsd (or an in-process server) with a job mix spread across
// tenants and priority lanes, polls every job to its terminal state,
// and reports per-lane throughput and latency percentiles plus the
// daemon's preemption and cache counters:
//
//	ripsbench serve [-addr URL] [-workers N] [-clients N] [-tenants N]
//	                [-jobs N] [-qps R] [-mix small|mixed|heavy]
//	                [-smoke] [-json FILE]
//
// -json writes the machine-readable BENCH_serve.json artifact (see
// internal/exp.ServeBenchJSON for the rips-serve/v1 schema).
//
// The cluster experiment calibrates the distributed transport: it
// stands up a small ripsd cluster (localhost TCP by default), echoes
// payloads of increasing size through the rips-wire/v1 frames, and
// fits the paper's alpha + beta*size message-cost line through the
// best round-trips, next to the simulator's modelled constants:
//
//	ripsbench cluster [-nodes N] [-reps N] [-mem] [-json FILE]
//
// -json writes the machine-readable BENCH_cluster.json artifact (see
// internal/exp.ClusterBenchJSON for the rips-cluster/v1 schema).
//
// The run experiment executes one workload through the public API and
// optionally emits the rips-result/v1 document ripsd streams:
//
//	ripsbench run [-app nq|ida|gromos] [-n N] [-procs N] [-topo T]
//	              [-alg A] [-backend B] [-timeout D] [-json PATH]
//
// so a CLI run, a committed BENCH artifact and a served job result all
// share one machine-readable schema (see runCmd).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rips"
	"rips/internal/apps/nqueens"
	"rips/internal/difftest"
	"rips/internal/exp"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

var (
	quick = flag.Bool("quick", false, "use reduced workloads and machine sizes")
	seed  = flag.Int64("seed", 1, "simulation seed")
	cases = flag.Int("cases", 100, "random load cases per Figure 4 point")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ripsbench [flags] fig4|table1|table2|fig5|table3|ablation|topologies|taxonomy|detail|parscale|difftest|lattice|run|serve|cluster|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	what := flag.Arg(0)
	if flag.NArg() > 1 && what != "parscale" && what != "difftest" && what != "lattice" && what != "run" && what != "serve" && what != "cluster" {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		start := time.Now() //ripslint:allow wallclock benchmark harness measures real elapsed time
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "ripsbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond)) //ripslint:allow wallclock reporting host elapsed time
	}

	switch what {
	case "fig4":
		run("fig4", fig4)
	case "table1":
		run("table1", func() error { _, err := table1(); return err })
	case "table2":
		run("table2", table2)
	case "fig5":
		run("fig5", fig5)
	case "table3":
		run("table3", table3)
	case "ablation":
		run("ablation", ablation)
	case "topologies":
		run("topologies", topologies)
	case "taxonomy":
		run("taxonomy", taxonomy)
	case "detail":
		run("detail", detail)
	case "parscale":
		run("parscale", func() error { return parscale(flag.Args()[1:]) })
	case "difftest":
		run("difftest", func() error { return difftestCmd(flag.Args()[1:]) })
	case "lattice":
		run("lattice", func() error { return latticeCmd(flag.Args()[1:]) })
	case "run":
		run("run", func() error { return runCmd(flag.Args()[1:]) })
	case "serve":
		run("serve", func() error { return serveCmd(flag.Args()[1:]) })
	case "cluster":
		run("cluster", func() error { return clusterCmd(flag.Args()[1:]) })
	case "all":
		run("fig4", fig4)
		run("table1+table2+fig5", fig5) // fig5 subsumes tables I and II
		run("table3", table3)
		run("ablation", ablation)
		run("topologies", topologies)
		run("taxonomy", taxonomy)
		run("detail", detail)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// cachedWorkloads caches the profiled evaluation set per process.
var cachedWorkloads []exp.Workload

func workloads() []exp.Workload {
	if cachedWorkloads == nil {
		fmt.Fprintln(os.Stderr, "ripsbench: profiling workloads (sequential runs)...")
		if *quick {
			cachedWorkloads = exp.QuickWorkloads()
		} else {
			cachedWorkloads = exp.PaperWorkloads()
		}
	}
	return cachedWorkloads
}

func table1Mesh() *topo.Mesh {
	if *quick {
		return topo.NewMesh(4, 4)
	}
	return topo.NewMesh(8, 4) // the paper's 32-processor Paragon mesh
}

func fig4() error {
	procs := []int{8, 16, 32, 64, 128, 256}
	n := *cases
	if *quick {
		procs = []int{8, 16, 32, 64}
		if n > 20 {
			n = 20
		}
	}
	pts := exp.Fig4(procs, []int{2, 5, 10, 20, 50, 100}, n, *seed)
	exp.PrintFig4(os.Stdout, pts)
	return nil
}

func table1() ([]metrics.Row, error) {
	rows, err := exp.Table1(workloads(), table1Mesh(), *seed, os.Stderr)
	if err != nil {
		return nil, err
	}
	exp.PrintTable1(os.Stdout, rows)
	return rows, nil
}

func table2() error {
	exp.PrintTable2(os.Stdout, workloads(), table1Mesh().Size())
	return nil
}

func fig5() error {
	rows, err := table1()
	if err != nil {
		return err
	}
	if err := table2(); err != nil {
		return err
	}
	exp.PrintFig5(os.Stdout, exp.Fig5(rows, exp.Table2(workloads(), table1Mesh().Size())))
	return nil
}

// table3 uses the paper's subset: the largest instance of each family.
func table3() error {
	all := workloads()
	var sel []exp.Workload
	if *quick {
		sel = all[:1]
	} else {
		// 15-queens, IDA* #3, GROMOS 16A — each family's largest.
		sel = []exp.Workload{all[2], all[5], all[8]}
		// The paper retunes RID's update factor to 0.7 for IDA* on
		// large machines.
		sel[1].RIDU = 0.7
	}
	sizes := []int{64, 128}
	if *quick {
		sizes = []int{16, 32}
	}
	rows, err := exp.Table3(sel, sizes, *seed)
	if err != nil {
		return err
	}
	exp.PrintTable3(os.Stdout, rows)
	return nil
}

func ablation() error {
	var w exp.Workload
	if *quick {
		w = exp.NewWorkload(nqueens.New(11, 3), 0.4)
	} else {
		w = exp.NewWorkload(nqueens.New(14, 4), 0.4)
	}
	rows, err := exp.Ablation(w, table1Mesh(), 5*sim.Millisecond, *seed)
	if err != nil {
		return err
	}
	exp.PrintAblation(os.Stdout, rows)
	return nil
}

// topologies compares RIPS across mesh, tree and hypercube machines.
func topologies() error {
	var w exp.Workload
	n := 32
	if *quick {
		w = exp.NewWorkload(nqueens.New(11, 3), 0.4)
		n = 16
	} else {
		w = exp.NewWorkload(nqueens.New(13, 4), 0.4)
	}
	rows, err := exp.Topologies(w, n, *seed)
	if err != nil {
		return err
	}
	exp.PrintTopologies(os.Stdout, rows)
	return nil
}

// taxonomy measures the paper's Section 1 problem classes.
func taxonomy() error {
	rows, err := exp.Taxonomy(exp.TaxonomyWorkloads(), table1Mesh(), *seed)
	if err != nil {
		return err
	}
	exp.PrintTaxonomy(os.Stdout, rows)
	return nil
}

// parscale runs the real-parallel scaling experiment on the
// internal/par backend: GOMAXPROCS swept from 1 to -maxworkers (NumCPU
// by default), RIPS, work stealing and the hierarchical hybrid side by
// side. -app selects the workload family (the Table I contrast on real
// cores: nq, ida or gromos); -n is that family's size knob; -domains
// shapes the hybrid partition (0 auto-detects the machine's affinity
// domains). Invariant checks (conservation, Theorem 1 balance) run
// inside every system phase unless disabled via RIPS_INVARIANTS.
// -smoke shrinks the run to seconds for CI.
func parscale(args []string) error {
	fs := flag.NewFlagSet("parscale", flag.ExitOnError)
	family := fs.String("app", "nq", "workload family: nq, ida or gromos")
	size := fs.Int("n", 0, "family size (nq board / ida config 1-3 / gromos cutoff in A); 0 picks the default")
	reps := fs.Int("reps", 3, "runs per point; the fastest is kept")
	domains := fs.Int("domains", 0, "hybrid affinity-domain count (0 auto-detects; clamped per point)")
	maxWorkers := fs.Int("maxworkers", 0, "top of the worker sweep; 0 means NumCPU (larger values oversubscribe)")
	smoke := fs.Bool("smoke", false, "tiny CI run: reduced workload, 1-2 workers, one rep")
	jsonPath := fs.String("json", "", "also write the BENCH_par.json trajectory (scaling curve + serial-vs-parallel system-phase comparison) to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxWorkers == 0 {
		*maxWorkers = runtime.NumCPU()
	}
	counts := exp.ParScaleCounts(*maxWorkers)
	if *smoke {
		*reps = 1
		counts = exp.ParScaleCounts(min(2, *maxWorkers))
		if *family == "nq" && *size == 0 {
			*size = 10
		}
	}
	a, err := rips.LookupApp(*family, *size)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ripsbench: parscale %s on %d cores, worker counts %v, %d reps, hybrid domains %d (invariants: %v)\n",
		a.Name(), runtime.NumCPU(), counts, *reps, *domains, invariant.Enabled())
	pts, err := exp.ParScale(a, counts, *reps, 0, *domains, *seed)
	if err != nil {
		return err
	}
	exp.PrintParScale(os.Stdout, a, pts)
	if *jsonPath == "" {
		return nil
	}
	// The headline comparison runs on a 16-worker mesh regardless of
	// the host core count (Cores in the JSON records the truth): the
	// per-phase number isolates the stop-the-world system-phase cost
	// under a controlled heavy migration, which the parallel apply
	// attacks.
	sp := exp.SystemPhaseCompare(16, 2048, 8, *reps)
	f, err := os.Create(*jsonPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := exp.WriteParScaleJSON(f, a, *reps, pts, sp); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ripsbench: wrote %s (serial %v/phase vs parallel %v/phase at %d workers)\n",
		*jsonPath, time.Duration(sp.SerialNsPerPhase), time.Duration(sp.ParallelNsPerPhase), sp.Workers)
	return nil
}

// difftestCmd runs the differential cross-validation lattice (see
// internal/difftest): every sampled configuration on every backend,
// identical answers required, invariants promoted to hard failures.
// Failing configurations are shrunk to minimal repros before printing.
func difftestCmd(args []string) error {
	fs := flag.NewFlagSet("difftest", flag.ExitOnError)
	n := fs.Int("n", 200, "number of lattice configurations to sample")
	dseed := fs.Int64("seed", 1, "master seed naming the sample")
	smoke := fs.Bool("smoke", false, "restrict the app pool to the cheap seven-app set (the CI gate)")
	one := fs.String("config", "", "re-run one configuration verbatim instead of sampling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := difftest.NewHarness()
	defer h.Close()
	if *one != "" {
		cfg, err := difftest.Parse(*one)
		if err != nil {
			return err
		}
		if f := h.Check(cfg); f != nil {
			return f
		}
		fmt.Printf("ok: %s identical on all backends\n", cfg)
		return nil
	}
	cfgs := difftest.Sample(*n, *dseed, *smoke)
	fmt.Fprintf(os.Stderr, "ripsbench: difftest %d configs (seed %d, smoke %v) on %d cores\n",
		len(cfgs), *dseed, *smoke, runtime.NumCPU())
	rep := h.Run(cfgs, os.Stderr)
	fmt.Printf("difftest: %d configs, %d failures; per app:", rep.Configs, len(rep.Failures))
	for _, s := range difftest.Apps() {
		if c := rep.PerApp[s.Name]; c > 0 {
			fmt.Printf(" %s=%d", s.Name, c)
		}
	}
	fmt.Println()
	if len(rep.Failures) == 0 {
		return nil
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAIL %v\n", f)
	}
	min := difftest.Shrink(rep.Failures[0].Config, func(c difftest.Config) bool { return h.Check(c) != nil })
	fmt.Printf("minimal repro: ripsbench difftest -config %q\n", min.String())
	return fmt.Errorf("difftest: %d of %d configurations failed", len(rep.Failures), rep.Configs)
}

// detail reproduces the Section 4 narrative: 15-Queens under RIPS on
// the 8x4 mesh — system phases, nonlocal tasks, migration volume.
func detail() error {
	n := 15
	if *quick {
		n = 12
	}
	a := nqueens.New(n, 4)
	res, err := ripsrt.Run(ripsrt.Config{Mesh: table1Mesh(), App: a, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("Section 4 narrative detail: %s under RIPS on %s\n", a.Name(), table1Mesh().Name())
	fmt.Printf("  system phases:        %d   (paper: ~8)\n", res.Phases)
	fmt.Printf("  nonlocal tasks:       %d   (paper: ~1000)\n", res.Nonlocal)
	fmt.Printf("  nonlocal per phase:   %.0f   (paper: ~125)\n", float64(res.Nonlocal)/float64(res.Phases))
	fmt.Printf("  task-link transfers:  %d\n", res.Migrated)
	fmt.Printf("  total overhead Th:    %v   (paper: ~510 ms)\n", res.Overhead)
	fmt.Printf("  idle time Ti:         %v   (paper: ~30 ms)\n", res.Idle)
	fmt.Printf("  execution time T:     %v   (paper: 10.9 s)\n", res.Time)
	fmt.Printf("  task total per phase: %v\n", res.PhaseTotals)
	return nil
}
