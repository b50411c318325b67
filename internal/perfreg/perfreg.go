// Package perfreg is the lattice gate on the scheduling protocol's
// behaviour: it reuses the differential-testing lattice (app × topology
// × policy × seed, see internal/difftest) as a probe grid, records
// per-configuration scheduling metrics into a versioned artifact
// (BENCH_lattice.json, schema rips-lattice/v2), and compares fresh
// measurements against a committed baseline.
//
// A committed baseline must compare exactly on any machine, so every
// metric comes from the virtual-time simulator (ripsrt), whose results
// — virtual execution time T, per-node overhead Th, task/migration/
// phase counters, the paper's Table I quantities — are pure functions
// of the configuration and seed. Any drift means the scheduling
// protocol itself changed behavior, and the comparison fails.
// Wall-clock performance of the real backends is not recorded here: it
// depends on the machine, and `go run ./bench` is where it is measured.
//
// A failing comparison is accompanied by a minimal reproducer
// configuration (see MinimalRepro) printed in the canonical form
// `ripsbench lattice -config "..."` re-runs verbatim.
package perfreg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rips/internal/difftest"
	"rips/internal/ripsrt"
)

// Schema identifies the BENCH_lattice.json wire format. Bump on any
// incompatible change to Document or the metric vocabulary. v2 carries
// no machine-dependent key: the document is deterministic.
const Schema = "rips-lattice/v2"

// Names of the exact (simulator-derived, machine-independent) metrics.
// These are schema vocabulary: renaming one is an artifact-format
// change.
const (
	ExactTasks             = "tasks"
	ExactAppResult         = "app_result"
	ExactPhases            = "phases"
	ExactMigrated          = "migrated"
	ExactNonlocal          = "nonlocal"
	ExactVirtualTimeNS     = "virtual_time_ns"
	ExactVirtualOverheadNS = "virtual_overhead_ns"
	ExactVirtualIdleNS     = "virtual_idle_ns"
)

// exactNames is the full vocabulary; every entry carries all of it.
var exactNames = []string{
	ExactTasks, ExactAppResult, ExactPhases, ExactMigrated,
	ExactNonlocal, ExactVirtualTimeNS, ExactVirtualOverheadNS, ExactVirtualIdleNS,
}

// Entry is one measured lattice point. Config is the canonical
// difftest string form (`app=nq12 topo=mesh:2x4 policy=any-lazy
// seed=3`), so an entry is replayable verbatim and the baseline
// carries its own probe grid — compare mode re-measures exactly the
// configurations recorded here, never a fresh sample.
type Entry struct {
	Config string           `json:"config"`
	Exact  map[string]int64 `json:"exact"`
}

// Document is the artifact root.
type Document struct {
	Schema string `json:"schema"`
	// Seed and Smoke record how the probe grid was sampled (see
	// difftest.Sample); informational once the entries exist.
	Seed    int64   `json:"seed"`
	Smoke   bool    `json:"smoke"`
	Entries []Entry `json:"entries"`
}

// Configs parses every entry's configuration back out of the
// document — the probe grid a comparison run must re-measure.
func (d *Document) Configs() ([]difftest.Config, error) {
	out := make([]difftest.Config, 0, len(d.Entries))
	for _, e := range d.Entries {
		c, err := difftest.Parse(e.Config)
		if err != nil {
			return nil, fmt.Errorf("perfreg: entry %q: %w", e.Config, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// exactMetrics flattens the simulator result into the exact metric
// map. sim.Time is virtual nanoseconds, so the casts are unit-true.
func exactMetrics(r ripsrt.Result) map[string]int64 {
	return map[string]int64{
		ExactTasks:             r.Generated,
		ExactAppResult:         r.AppResult,
		ExactPhases:            r.Phases,
		ExactMigrated:          r.Migrated,
		ExactNonlocal:          r.Nonlocal,
		ExactVirtualTimeNS:     int64(r.Time),
		ExactVirtualOverheadNS: int64(r.Overhead),
		ExactVirtualIdleNS:     int64(r.Idle),
	}
}

// MeasureEntry measures one lattice point into artifact form.
func MeasureEntry(h *difftest.Harness, cfg difftest.Config) (Entry, error) {
	res, err := h.Measure(cfg)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Config: cfg.String(), Exact: exactMetrics(res)}, nil
}

// Measure runs every configuration on the simulator and builds the
// artifact document. A measurement error (including an answer diverging
// from the sequential truth) aborts: a baseline or a comparison
// computed from a wrong run would be worse than none. When progress is
// non-nil one line per configuration is streamed to it.
func Measure(h *difftest.Harness, cfgs []difftest.Config, seed int64, smoke bool, progress io.Writer) (*Document, error) {
	doc := &Document{Schema: Schema, Seed: seed, Smoke: smoke}
	for i, cfg := range cfgs {
		e, err := MeasureEntry(h, cfg)
		if err != nil {
			return nil, err
		}
		doc.Entries = append(doc.Entries, e)
		if progress != nil {
			fmt.Fprintf(progress, "[%3d/%d] %-60s tasks=%d virtual_time=%dns\n",
				i+1, len(cfgs), cfg.String(), e.Exact[ExactTasks], e.Exact[ExactVirtualTimeNS])
		}
	}
	return doc, nil
}

// Encode renders the document as indented JSON with a trailing
// newline. encoding/json emits map keys sorted, so the byte form is
// deterministic — regenerating a baseline on the same code produces an
// identical file.
func Encode(d *Document) ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the document to path.
func WriteFile(path string, d *Document) error {
	b, err := Encode(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile loads and schema-checks a baseline document.
func ReadFile(path string) (*Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// Decode parses and checks a document: the schema tag, no keys this
// build does not know, and in every entry a configuration that parses
// and the whole exact vocabulary. A baseline that loads can gate; one
// with nothing to compare must not pass by comparing nothing.
func Decode(b []byte) (*Document, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &head); err != nil {
		return nil, fmt.Errorf("perfreg: decoding baseline: %w", err)
	}
	if head.Schema != Schema {
		return nil, fmt.Errorf("perfreg: baseline schema %q, this build reads %q: regenerate with `ripsbench lattice -update`", head.Schema, Schema)
	}
	var d Document
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("perfreg: decoding baseline: %w", err)
	}
	if len(d.Entries) == 0 {
		return nil, fmt.Errorf("perfreg: baseline has no entries")
	}
	if _, err := d.Configs(); err != nil {
		return nil, err
	}
	for _, e := range d.Entries {
		for _, name := range exactNames {
			if _, ok := e.Exact[name]; !ok {
				return nil, fmt.Errorf("perfreg: entry %q has no exact metric %q", e.Config, name)
			}
		}
	}
	return &d, nil
}
