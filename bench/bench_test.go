package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the driver's description of this benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesVocabulary holds BENCHMARK.json and the
// tables in metrics.go and workloads.go to one vocabulary, inside the
// driver's limits.
func TestBenchmarkJSONMatchesVocabulary(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	once := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go, at most 8 allowed", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), workloads.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go, at most 16 allowed", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		once(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go has %+v", i, m, d)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v outside the driver's limits", m.Name, m.Unit, m.Bound)
		}
	}
	if last := b.EndToEnd[len(b.EndToEnd)-1]; last.Name != "setup_s" || last.Unit != "s" || last.Better != "lower" {
		t.Errorf("the driver needs a setup_s metric in s, lower is better; have %+v", last)
	}
	for _, m := range b.EndToEnd {
		if m.Bound > b.EndToEnd[len(b.EndToEnd)-1].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go, at most 128 allowed", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		once(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q outside the driver's alphabet", m.Name, m.Unit)
		}
		for _, w := range strings.Fields(d.From) {
			if _, err := findWorkload(w); err != nil {
				t.Errorf("per-layer metric %s is fed by %v", m.Name, err)
			}
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// rowsNamed counts the table rows whose first column is name.
func rowsNamed(table, name string) int {
	n := 0
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			n++
		}
	}
	return n
}

// TestSmoke runs every workload at the smoke sizing, both passes, and
// checks that each prints every name of its table exactly once, that
// every job verified, and that the trace file loads.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := runOpts{seed: 1, smoke: true, outDir: t.TempDir()}
	endSet, layerSet := map[string]result{}, map[string]result{}
	for i := range workloads {
		w := &workloads[i]
		for _, pass := range []struct {
			run  func(context.Context, runOpts) (result, error)
			defs []metricDef
			into map[string]result
		}{{w.runEndToEnd, endToEnd, endSet}, {w.runTraced, perLayer, layerSet}} {
			res, err := pass.run(ctx, o)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.smoke {
				t.Errorf("%s: %d of %d jobs failed (first: %v); want all %d to verify", w.name, res.Failed, res.Attempted, res.failure, w.smoke)
			}
			if len(res.Metrics) != len(pass.defs) {
				t.Errorf("%s: %d metrics in the result, %d in the table", w.name, len(res.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok || v.Unit != d.Unit:
					t.Errorf("%s: metric %s missing or in %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				case !d.feeds(w.name) && v.Value != 0:
					t.Errorf("%s: metric %s reads %v but is fed by %s only", w.name, d.Name, v.Value, d.From)
				}
			}
			pass.into[w.name] = res
		}

		data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Dur  float64
				Args map[string]int
			}
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace file does not load: %v", w.name, err)
		}
		roots := 0
		for _, e := range trace.TraceEvents {
			if e.Name == "job" && e.Args["parent"] == 0 {
				roots++
			}
		}
		if roots == 0 || roots == len(trace.TraceEvents) {
			t.Errorf("%s: trace has %d job spans among %d events; want jobs and their children", w.name, roots, len(trace.TraceEvents))
		}
	}

	for _, tbl := range []struct {
		defs []metricDef
		set  map[string]result
	}{{endToEnd, endSet}, {perLayer, layerSet}} {
		var out bytes.Buffer
		printTable(&out, tbl.defs, tbl.set)
		for _, d := range tbl.defs {
			if n := rowsNamed(out.String(), d.Name); n != 1 {
				t.Errorf("metric %s heads %d rows of the table, want 1", d.Name, n)
			}
		}
		header := strings.Fields(strings.SplitN(out.String(), "\n", 2)[0])
		for _, w := range workloads {
			n := 0
			for _, h := range header {
				if h == w.name {
					n++
				}
			}
			if n != 1 {
				t.Errorf("workload %s heads %d columns of the table, want 1", w.name, n)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{ten, 0.5, 5}, {ten, 0.9, 9}, {ten, 0.99, 10}, {ten, 1, 10}, {ten, 0.01, 1},
		{[]float64{7}, 0.9, 7}, {nil, 0.5, 0},
	} {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 9 1 5 = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// A 100ns job whose children cover 10-40 and 30-60 (overlapping),
	// one of which has a child of its own, and a child that overruns
	// the parent's end.
	spans := []span{
		{Name: "job", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "a.inner", ID: 4, Parent: 2, Start: 15, End: 25},
		{Name: "late", ID: 5, Parent: 1, Start: 90, End: 130},
		{Name: "other job", ID: 6, Start: 0, End: 50},
	}
	want := []time.Duration{40, 20, 30, 10, 40, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	rows := budget(spans)
	if rows[0].Name != "job" || rows[0].Count != 1 || rows[0].Total != 100 || rows[0].Self != 40 {
		t.Errorf("budget row of job = %+v, want 1 span, total 100, self 40", rows[0])
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 100, 110, 0.10}, {"lower", 100, 90, -0.10},
		{"higher", 100, 90, 0.10}, {"higher", 100, 110, -0.10},
		{"lower", 5, 5, 0},
	} {
		if got := worsening(c.better, c.a, c.b); got != c.want {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", c.better, c.a, c.b, got, c.want)
		}
	}
}
