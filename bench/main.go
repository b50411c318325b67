// Command bench is the repository's benchmark: six closed-loop job
// workloads on real cores, seven end-to-end metrics per workload from
// an untraced run, and a per-layer budget from a traced one. It drives
// the system through its public entry points only; README.md explains
// every workload and metric, BENCHMARK.json lists them for the driver.
//
//	go run ./bench [-seed N]                 all workloads, end to end
//	go run ./bench -trace 1                  ... plus the per-layer run and trace files
//	go run ./bench -workload par_fine        one workload, in this process
//	go run ./bench -selfcheck                two sets with one seed, one with another
//
// With -workload the last line of standard output is the result line
// the driver reads: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedJobs is a run that completed but whose jobs did not all
// verify; the tables are printed before it is returned.
var errFailedJobs = errors.New("jobs failed verification")

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in-process and end with its result line; empty runs all six, one child process each")
	seed := fs.Int64("seed", 1, "the only input knob: derives every job's Config.Seed")
	seconds := fs.Float64("seconds", 0, "measure each workload for this long; 0 runs its fixed job count")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass (with -workload: instead of the end-to-end one)")
	smoke := fs.Bool("smoke", false, "a handful of jobs per workload, for tests")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end set twice with one seed and once with the next, and compare against the bounds")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// W workers on W cores; on a smaller machine the run goes ahead,
	// labelled, without the numbers that would mislead.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), workers))
	opts := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}

	switch {
	case *selfcheck:
		return selfCheck(ctx, opts, stdout)
	case *name != "":
		return runOne(ctx, *name, opts, *trace == 1, stdout)
	}
	set, err := runSet(ctx, opts, false)
	if err != nil {
		return err
	}
	printEnv(stdout, opts)
	printTable(stdout, endToEnd, set)
	doc := map[string]any{"env": environment(), "end_to_end": set}
	failed := anyFailed(set)
	if *trace == 1 {
		layers, err := runSet(ctx, opts, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		printTable(stdout, perLayer, layers)
		doc["per_layer"] = layers
		failed = failed || anyFailed(layers)
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opts.outDir, "result.json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if failed {
		return errFailedJobs
	}
	return nil
}

// env is the machine and build a set of numbers belongs to.
type env struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
}

func environment() env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		Oversubscribed: oversubscribed(), GoVersion: runtime.Version(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func printEnv(w io.Writer, o runOpts) {
	e := environment()
	mode := "fixed job counts"
	if o.seconds > 0 {
		mode = fmt.Sprintf("%gs per workload", o.seconds)
	}
	fmt.Fprintf(w, "rips bench: seed %d, %s; nproc %d, GOMAXPROCS %d, W %d, %s, commit %s\n",
		o.seed, mode, e.NProc, e.GOMAXPROCS, e.Workers, e.GoVersion, e.Commit)
	if e.Oversubscribed {
		fmt.Fprintf(w, "oversubscribed: %d workers on %d cores; speedup and efficiency figures are omitted\n", e.Workers, e.NProc)
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne runs a single workload in this process, so its memory and
// CPU numbers are that workload's alone, and ends standard output
// with the result line.
func runOne(ctx context.Context, name string, o runOpts, traced bool, stdout io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	defs, pass := endToEnd, w.runEndToEnd
	if traced {
		defs, pass = perLayer, w.runTraced
	}
	res, err := pass(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printEnv(stdout, o)
	fmt.Fprintf(stdout, "%s: GOMAXPROCS %d for its jobs; machine speed %.2f of reference (median yardstick reading; times are scaled to reference speed)\n",
		name, min(runtime.NumCPU(), w.procs), res.speed)
	printTable(stdout, defs, map[string]result{name: res})
	if res.budget != nil {
		printBudget(stdout, res.budget)
	}
	var je *jobError
	if errors.As(res.failure, &je) {
		// The document is what a ripsd or a cluster node accepts; a
		// cluster-backend job re-runs only there.
		doc, err := je.spec.Encode()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "first failed job: %v\nrepro: %s\nspec: %s\n", je, repro(je.spec), doc)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return errFailedJobs
	}
	return nil
}

// runSet runs every workload, one child process after another, and
// collects their result lines.
func runSet(ctx context.Context, o runOpts, traced bool) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := map[string]result{}
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
		if traced {
			args = append(args, "-trace", "1")
		}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, errors.Join(fmt.Errorf("%s: no result line: %w", w.name, err), runErr)
		}
		if !res.Correct {
			// The child's own output names the failed job and its repro.
			os.Stderr.Write(out)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done (%d jobs, %d failed)\n", w.name, res.Attempted, res.Failed)
		set[w.name] = res
	}
	return set, nil
}

func anyFailed(set map[string]result) bool {
	for _, r := range set {
		if !r.Correct {
			return true
		}
	}
	return false
}

// printTable prints one row per metric and one column per workload
// that was run, so every name appears once.
func printTable(w io.Writer, defs []metricDef, set map[string]result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	header := "metric\tunit\t"
	jobs := "jobs\tcount\t"
	failedShare := "failed_share\tratio\t"
	var cols []string
	for _, wl := range workloads {
		if r, ok := set[wl.name]; ok {
			cols = append(cols, wl.name)
			header += wl.name + "\t"
			jobs += fmt.Sprintf("%d\t", r.Attempted)
			failedShare += fmt.Sprintf("%.4g\t", float64(r.Failed)/float64(max(r.Attempted, 1)))
		}
	}
	fmt.Fprintln(tw, header)
	for _, d := range defs {
		row := d.Name + "\t" + d.Unit + "\t"
		for _, c := range cols {
			switch {
			case !d.feeds(c):
				row += "-\t"
			case d.Scaling && oversubscribed():
				row += "omitted\t"
			default:
				row += fmt.Sprintf("%.5g\t", set[c].Metrics[d.Name].Value)
			}
		}
		fmt.Fprintln(tw, row)
	}
	fmt.Fprintln(tw, jobs)
	fmt.Fprintln(tw, failedShare)
	tw.Flush()
}

// printBudget prints the traced run's span table: where a job's wall
// went, by the layer call that held it.
func printBudget(w io.Writer, rows []spanTotals) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal_ms\tself_ms\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", r.Name, r.Count, ms(r.Total), ms(r.Self))
	}
	tw.Flush()
}

// selfCheck shows the benchmark resolves its own bounds: two sets of
// the same code and seed must agree within every metric's bound, or
// the pair is unresolved and a later comparison against that bound
// would mean nothing. A third set on the next seed shows the numbers
// are not fitted to one seed; it is printed, not judged.
func selfCheck(ctx context.Context, o runOpts, stdout io.Writer) error {
	var sets [3]map[string]result
	for k := range sets {
		so := o
		if k == 2 {
			so.seed++
		}
		set, err := runSet(ctx, so, false)
		if err != nil {
			return err
		}
		if anyFailed(set) {
			return errFailedJobs
		}
		sets[k] = set
	}
	printEnv(stdout, o)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tseed %d\tseed %d again\tworse by\tbound\tverdict\tseed %d\t\n", o.seed, o.seed, o.seed+1)
	unresolved := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b, c := sets[0][wl.name].Metrics[d.Name].Value, sets[1][wl.name].Metrics[d.Name].Value, sets[2][wl.name].Metrics[d.Name].Value
			diff := worsening(d.Better, a, b)
			verdict := "ok"
			if math.Abs(diff) > d.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%s\t%.5g\t\n", wl.name, d.Name, a, b, 100*diff, 100*d.Bound, verdict, c)
		}
	}
	tw.Flush()
	if unresolved > 0 {
		return fmt.Errorf("%d workload x metric pairs differ between two runs of the same code by more than their bound", unresolved)
	}
	return nil
}
