package perfreg

import (
	"reflect"
	"strings"
	"testing"

	"rips/internal/difftest"
)

// tinyGrid is a cheap probe grid for harness tests: the two cheapest
// kernels on the smallest interesting machines.
func tinyGrid(t *testing.T) []difftest.Config {
	t.Helper()
	var cfgs []difftest.Config
	for _, s := range []string{
		"app=mg topo=mesh:1x2 policy=any-lazy seed=1",
		"app=fft topo=tree:3 policy=all-eager seed=2",
	} {
		c, err := difftest.Parse(s)
		if err != nil {
			t.Fatalf("parsing grid config %q: %v", s, err)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func measureGrid(t *testing.T) *Document {
	t.Helper()
	doc, err := Measure(difftest.NewHarness(), tinyGrid(t), 1, true, nil)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	return doc
}

// copyDoc deep-copies a document so tests can perturb one side.
func copyDoc(d *Document) *Document {
	out := *d
	out.Entries = make([]Entry, len(d.Entries))
	for i, e := range d.Entries {
		out.Entries[i] = Entry{Config: e.Config, Exact: map[string]int64{}}
		for k, v := range e.Exact {
			out.Entries[i].Exact[k] = v
		}
	}
	return &out
}

// TestExactMetricsDeterministic is the property the whole design rests
// on: the exact metric block is a pure function of the configuration,
// so two independent measurements (fresh harnesses, fresh app
// instances) must agree bit-for-bit. If this fails, a committed
// baseline could never gate anything.
func TestExactMetricsDeterministic(t *testing.T) {
	a, b := measureGrid(t), measureGrid(t)
	for i := range a.Entries {
		if !reflect.DeepEqual(a.Entries[i].Exact, b.Entries[i].Exact) {
			t.Errorf("[%s] exact metrics differ across identical runs:\n  %v\n  %v",
				a.Entries[i].Config, a.Entries[i].Exact, b.Entries[i].Exact)
		}
	}
}

// TestCompareCleanBaseline: a measurement compared against itself (and
// against an independent re-measurement) has no exact drift.
func TestCompareCleanBaseline(t *testing.T) {
	base := measureGrid(t)
	rep := Compare(base, measureGrid(t))
	if rep.Failed() {
		rep.Print(testWriter{t})
		t.Fatal("clean re-measurement failed the baseline comparison")
	}
	if rep.Entries != len(base.Entries) {
		t.Errorf("compared %d entries, want %d", rep.Entries, len(base.Entries))
	}
}

// TestCompareDetectsInjectedDrift perturbs exact counters in a copy of
// the baseline and asserts the comparison fails and the minimal
// reproducer is the cheapest failing configuration — the acceptance
// property of the harness: a behavioral change in the scheduler cannot
// slip past the committed baseline.
func TestCompareDetectsInjectedDrift(t *testing.T) {
	cur := measureGrid(t)
	base := copyDoc(cur)

	// Drift both points; the reproducer must pick the cheaper app (mg
	// precedes fft in difftest.Apps' cheapest-first order).
	base.Entries[0].Exact[ExactMigrated]++
	base.Entries[1].Exact[ExactPhases] += 3

	rep := Compare(base, cur)
	if !rep.Failed() {
		t.Fatal("injected exact drift did not fail the comparison")
	}
	if len(rep.Exact) != 2 {
		t.Errorf("got %d exact drifts, want 2: %v", len(rep.Exact), rep.Exact)
	}
	min, ok := MinimalRepro(rep)
	if !ok {
		t.Fatal("failed report produced no reproducer")
	}
	if min.App != "mg" {
		t.Errorf("reproducer picked %q, want the cheapest failing app mg", min.String())
	}
	// The reproducer round-trips through the form the CLI prints.
	back, err := difftest.Parse(min.String())
	if err != nil || back != min {
		t.Errorf("reproducer %q does not round-trip: %v", min.String(), err)
	}
}

// TestCompareMissingEntryFails: a baseline probe point absent from the
// current measurement is fatal, not silently skipped.
func TestCompareMissingEntryFails(t *testing.T) {
	base := measureGrid(t)
	cur := copyDoc(base)
	cur.Entries = cur.Entries[:1]
	rep := Compare(base, cur)
	if !rep.Failed() || len(rep.Missing) != 1 {
		t.Fatalf("dropped probe point not reported: failed=%v missing=%v", rep.Failed(), rep.Missing)
	}
	if min, ok := MinimalRepro(rep); !ok || min.String() != base.Entries[1].Config {
		t.Errorf("reproducer = %v, %v; want the missing config %q", min, ok, base.Entries[1].Config)
	}
}

// TestCompareOneSidedMetricDrifts: a metric only one side carries is a
// drift, whichever side it is — a quantity the measurement gained is
// not silently left ungated, and one it lost does not compare as 0.
func TestCompareOneSidedMetricDrifts(t *testing.T) {
	const cfg = "app=mg topo=mesh:1x2 policy=any-lazy seed=1"
	doc := func(exact map[string]int64) *Document {
		return &Document{Schema: Schema, Entries: []Entry{{Config: cfg, Exact: exact}}}
	}
	for _, tc := range []struct {
		name      string
		base, cur map[string]int64
		absent    string
	}{
		{"only in current", map[string]int64{ExactTasks: 5}, map[string]int64{ExactTasks: 5, "new_metric": 0}, "baseline"},
		{"only in baseline", map[string]int64{ExactTasks: 5, "old_metric": 0}, map[string]int64{ExactTasks: 5}, "current"},
	} {
		rep := Compare(doc(tc.base), doc(tc.cur))
		if !rep.Failed() || len(rep.Exact) != 1 {
			t.Errorf("%s: failed=%v drifts=%v, want exactly one drift", tc.name, rep.Failed(), rep.Exact)
			continue
		}
		if d := rep.Exact[0]; d.Absent != tc.absent || !strings.Contains(d.String(), "absent") {
			t.Errorf("%s: drift %q (Absent=%q), want the metric reported absent from the %s", tc.name, d, d.Absent, tc.absent)
		}
	}
}

// TestEncodeDecodeRoundTrip: a measured document survives the byte
// form unchanged, and the byte form is deterministic.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := measureGrid(t)
	b, err := Encode(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc, got) {
		t.Error("document changed across Encode/Decode")
	}
	// Determinism of the byte form for fixed values.
	b2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Error("Encode is not deterministic for identical documents")
	}
}

// TestDecodeRejects: a baseline that would gate nothing, or gate
// something other than what this build measures, refuses to load
// rather than letting `lattice -baseline FILE` pass vacuously.
func TestDecodeRejects(t *testing.T) {
	const (
		cfg   = `"config":"app=mg topo=mesh:1x2 policy=any-lazy seed=1"`
		exact = `"exact":{"tasks":1,"app_result":1,"phases":1,"migrated":1,"nonlocal":1,` +
			`"virtual_time_ns":1,"virtual_overhead_ns":1,"virtual_idle_ns":1}`
	)
	v2 := func(entry string) string { return `{"schema":"` + Schema + `","entries":[{` + entry + `}]}` }
	if _, err := Decode([]byte(v2(cfg + "," + exact))); err != nil {
		t.Fatalf("the well-formed document the cases below are cut from does not load: %v", err)
	}
	for _, tc := range []struct {
		name, doc, wantErr string
	}{
		{"old schema", `{"schema":"rips-lattice/v1","cores":1,"entries":[{` + cfg + "," + exact + `,"advisory":{}}]}`,
			"regenerate with `ripsbench lattice -update`"},
		{"no entries", `{"schema":"` + Schema + `","entries":[]}`, "no entries"},
		{"empty exact", v2(cfg), ExactTasks},
		{"one missing exact name", v2(cfg + "," + strings.Replace(exact, `"phases":1,`, "", 1)), ExactPhases},
		{"bad config", v2(`"config":"app=nosuchapp",` + exact), "nosuchapp"},
		{"stray advisory key", v2(cfg + "," + exact + `,"advisory":{"rips_wall_ns":1}`), "advisory"},
	} {
		_, err := Decode([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// testWriter adapts t.Log for Report.Print.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}
