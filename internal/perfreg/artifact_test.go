package perfreg

import (
	"testing"

	"rips/internal/difftest"
)

// TestBenchLatticeArtifactSchema golden-checks the committed
// BENCH_lattice.json: it must load through ReadFile (rips-lattice/v2,
// no key outside the exact-only schema, every probe point a lattice
// configuration carrying the whole exact vocabulary), be the 24-point
// smoke grid CI gates on, be honest about the app pool, and hold sane
// values — the compare gate is only as strong as the committed
// baseline.
func TestBenchLatticeArtifactSchema(t *testing.T) {
	doc, err := ReadFile("../../BENCH_lattice.json")
	if err != nil {
		t.Fatalf("committed baseline does not load: %v", err)
	}
	if doc.Schema != "rips-lattice/v2" || !doc.Smoke || len(doc.Entries) != 24 {
		t.Errorf("baseline is schema %q, smoke %v, %d probe points; want rips-lattice/v2, the smoke grid, 24",
			doc.Schema, doc.Smoke, len(doc.Entries))
	}
	heavy := map[string]bool{}
	for _, s := range difftest.Apps() {
		heavy[s.Name] = s.Heavy
	}
	seen := map[string]bool{}
	for _, e := range doc.Entries {
		cfg, err := difftest.Parse(e.Config)
		if err != nil {
			t.Errorf("entry %q is not a lattice configuration: %v", e.Config, err)
			continue
		}
		if seen[e.Config] {
			t.Errorf("duplicate probe point %q", e.Config)
		}
		seen[e.Config] = true
		if doc.Smoke && heavy[cfg.App] {
			t.Errorf("smoke baseline carries heavy app %q", cfg.App)
		}
		for _, k := range exactNames {
			v, ok := e.Exact[k]
			if !ok {
				t.Errorf("[%s] missing exact metric %q", e.Config, k)
			}
			if v < 0 {
				t.Errorf("[%s] exact %s = %d, want non-negative", e.Config, k, v)
			}
		}
		if e.Exact[ExactTasks] <= 0 || e.Exact[ExactVirtualTimeNS] <= 0 {
			t.Errorf("[%s] degenerate run: tasks=%d virtual_time=%d",
				e.Config, e.Exact[ExactTasks], e.Exact[ExactVirtualTimeNS])
		}
	}
}
