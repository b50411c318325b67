package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rips/internal/difftest"
	"rips/internal/perfreg"
)

// latticeCmd is the lattice gate on the scheduling protocol's
// behaviour (see internal/perfreg). Default mode re-measures every
// probe point recorded in the committed baseline and compares: the
// deterministic simulator metrics must match bit-for-bit, and any
// drift fails the command with a minimal reproducer. -update
// regenerates the baseline from a fresh sample; -config measures one
// point verbatim.
func latticeCmd(args []string) error {
	fs := flag.NewFlagSet("lattice", flag.ExitOnError)
	n := fs.Int("n", 24, "probe points to sample when regenerating with -update")
	lseed := fs.Int64("seed", 1, "master seed naming the -update sample")
	smoke := fs.Bool("smoke", false, "cheap-apps-only grid; in compare mode asserts the baseline is a smoke baseline (the CI gate)")
	baseline := fs.String("baseline", "BENCH_lattice.json", "baseline artifact to compare against, or to write with -update")
	update := fs.Bool("update", false, "regenerate the baseline from a fresh (-n, -seed) sample instead of comparing")
	jsonPath := fs.String("json", "", "also write the fresh measurement document to this path")
	one := fs.String("config", "", "measure one configuration verbatim and print its metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	h := difftest.NewHarness()
	defer h.Close()

	if *one != "" {
		return latticeOne(h, *one, *baseline)
	}

	if *update {
		cfgs := difftest.Sample(*n, *lseed, *smoke)
		fmt.Fprintf(os.Stderr, "ripsbench: lattice measuring %d probe points (seed %d, smoke %v)\n",
			len(cfgs), *lseed, *smoke)
		doc, err := perfreg.Measure(h, cfgs, *lseed, *smoke, os.Stderr)
		if err != nil {
			return err
		}
		if err := perfreg.WriteFile(*baseline, doc); err != nil {
			return err
		}
		fmt.Printf("lattice: wrote %s (%d probe points)\n", *baseline, len(doc.Entries))
		return nil
	}

	base, err := perfreg.ReadFile(*baseline)
	if err != nil {
		return fmt.Errorf("lattice: no usable baseline (regenerate with -update): %w", err)
	}
	if *smoke && !base.Smoke {
		return fmt.Errorf("lattice: -smoke compare against a full-lattice baseline %s; CI gates on the smoke grid", *baseline)
	}
	cfgs, err := base.Configs()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ripsbench: lattice re-measuring %d baseline probe points\n", len(cfgs))
	cur, err := perfreg.Measure(h, cfgs, base.Seed, base.Smoke, os.Stderr)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := perfreg.WriteFile(*jsonPath, cur); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ripsbench: wrote %s\n", *jsonPath)
	}
	rep := perfreg.Compare(base, cur)
	rep.Print(os.Stdout)
	if !rep.Failed() {
		return nil
	}
	if min, ok := perfreg.MinimalRepro(rep); ok {
		fmt.Printf("minimal repro: ripsbench lattice -config %q\n", min.String())
	}
	return fmt.Errorf("lattice: %d exact drifts, %d missing probe points against %s",
		len(rep.Exact), len(rep.Missing), *baseline)
}

// latticeOne measures a single probe point and prints its metrics; if
// the baseline holds that point, the exact metrics are also compared.
func latticeOne(h *difftest.Harness, config, baseline string) error {
	cfg, err := difftest.Parse(config)
	if err != nil {
		return err
	}
	e, err := perfreg.MeasureEntry(h, cfg)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(e.Exact))
	for k := range e.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("lattice point [%s]\n", e.Config)
	for _, k := range keys {
		fmt.Printf("  %-24s %d\n", k, e.Exact[k])
	}

	base, err := perfreg.ReadFile(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ripsbench: no baseline to compare against (%v)\n", err)
		return nil
	}
	for _, be := range base.Entries {
		if be.Config != e.Config {
			continue
		}
		rep := perfreg.Compare(
			&perfreg.Document{Schema: perfreg.Schema, Entries: []perfreg.Entry{be}},
			&perfreg.Document{Schema: perfreg.Schema, Entries: []perfreg.Entry{e}})
		rep.Print(os.Stdout)
		if rep.Failed() {
			return fmt.Errorf("lattice: exact metrics drifted from baseline %s", baseline)
		}
		return nil
	}
	fmt.Printf("(configuration not in baseline %s)\n", baseline)
	return nil
}
