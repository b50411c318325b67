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
// probe grid for the scheduling protocol's behaviour (see
// internal/perfreg): each point is run on the virtual-time simulator
// and its deterministic metrics are recorded. Against the committed
// BENCH_lattice.json baseline any drift fails the command and prints a
// minimal reproducer (wall-clock performance is `go run ./bench`):
//
//	ripsbench lattice [-smoke] [-baseline FILE] [-update] [-n N]
//	                  [-seed N] [-json FILE] [-config "..."]
//
// The default mode re-measures the baseline's own probe points and
// compares; -update regenerates the baseline from a fresh sample;
// -config measures one point verbatim (the form drifts are printed
// in).
//
// The run experiment executes one workload through the public API and
// optionally emits the rips-result/v1 document ripsd streams:
//
//	ripsbench run [-app nq|ida|gromos] [-n N] [-procs N] [-topo T]
//	              [-alg A] [-backend B] [-timeout D] [-json PATH]
//
// so a CLI run and a served job result share one machine-readable
// schema (see runCmd).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"rips/internal/apps/nqueens"
	"rips/internal/difftest"
	"rips/internal/exp"
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
		fmt.Fprintf(os.Stderr, "usage: ripsbench [flags] fig4|table1|table2|fig5|table3|ablation|topologies|taxonomy|detail|difftest|lattice|run|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	what := flag.Arg(0)
	if flag.NArg() > 1 && what != "difftest" && what != "lattice" && what != "run" {
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
	case "difftest":
		run("difftest", func() error { return difftestCmd(flag.Args()[1:]) })
	case "lattice":
		run("lattice", func() error { return latticeCmd(flag.Args()[1:]) })
	case "run":
		run("run", func() error { return runCmd(flag.Args()[1:]) })
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
	res, err := ripsrt.Run(ripsrt.Config{Topo: table1Mesh(), App: a, Seed: *seed})
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
