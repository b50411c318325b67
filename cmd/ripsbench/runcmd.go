package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rips"
)

// runCmd is the single-run front door over the public API — the CLI
// twin of one ripsd job submission:
//
//	ripsbench run [-app nq|ida|gromos] [-n N] [-procs N] [-topo T]
//	              [-alg A] [-backend B] [-eager] [-all] [-timeout D]
//	              [-seed N] [-json PATH]
//
// It parses the algorithm and backend with the same ParseAlgorithm/
// ParseBackend the server uses, runs the rips.Config literal via
// rips.RunContext (which validates it before committing anything;
// -timeout is Config.Timeout), and with -json emits the same rips-result/v1 document ripsd streams ("-" for
// stdout), so a CLI run and a served run are comparable byte for byte.
func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	family := fs.String("app", "nq", "workload family: nq, ida or gromos")
	size := fs.Int("n", 0, "family size (nq board / ida config 1-3 / gromos cutoff in A); 0 picks the default")
	procs := fs.Int("procs", 4, "machine size (simulated nodes or real workers)")
	topoName := fs.String("topo", "", "topology: mesh, tree or hypercube (default mesh)")
	algName := fs.String("alg", "rips", "algorithm: rips, random, gradient, rid, static or steal")
	backendName := fs.String("backend", "simulate", "backend: simulate, parallel or hybrid")
	eager := fs.Bool("eager", false, "RIPS eager local policy")
	all := fs.Bool("all", false, "RIPS ALL global policy")
	timeout := fs.Duration("timeout", 0, "cancel the run after this long (0 means no limit)")
	runSeed := fs.Int64("seed", 1, "reproducibility seed")
	jsonPath := fs.String("json", "", "write the rips-result/v1 document to this path (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	a, err := rips.LookupApp(*family, *size)
	if err != nil {
		return err
	}
	alg, err := rips.ParseAlgorithm(*algName)
	if err != nil {
		return err
	}
	backend, err := rips.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	cfg := rips.Config{
		Procs:     *procs,
		Topology:  *topoName,
		Algorithm: alg,
		Backend:   backend,
		Eager:     *eager,
		All:       *all,
		Timeout:   *timeout,
		Seed:      *runSeed,
	}

	res, runErr := rips.RunContext(context.Background(), a, cfg)
	if runErr != nil && !res.Canceled {
		return runErr
	}

	if *jsonPath != "" {
		doc := rips.EncodeResult(cfg, res)
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if res.Canceled {
		fmt.Fprintf(os.Stderr, "ripsbench: run canceled after %v: partial result (%d tasks executed)\n", *timeout, res.Tasks)
		return runErr
	}
	fmt.Printf("%s  %s/%s  P=%d  answer=%d  tasks=%d  phases=%d  nonlocal=%d  eff=%.3f  wall=%v\n",
		a.Name(), alg, backend, cfg.Procs, res.AppResult, res.Tasks, res.Phases, res.Nonlocal,
		res.Efficiency, res.Wall.Round(time.Microsecond))
	return nil
}
