package difftest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rips/internal/app"
	"rips/internal/ripsrt"
	"rips/internal/sim"
)

// TestLatticeSmoke is the in-tree slice of the differential lattice:
// a stratified sample over the cheap app pool, every backend per
// configuration. CI's `ripsbench difftest -smoke` run covers the
// 200-config acceptance gate; this test keeps `go test ./...`
// self-contained. On failure it shrinks the first failing
// configuration and prints the verbatim repro command.
func TestLatticeSmoke(t *testing.T) {
	n := 35
	if testing.Short() {
		n = 14
	}
	h := NewHarness()
	defer h.Close()
	rep := h.Run(Sample(n, 1, true), nil)
	if rep.Configs != n {
		t.Fatalf("checked %d configs, want %d", rep.Configs, n)
	}
	if len(rep.Failures) == 0 {
		return
	}
	for _, f := range rep.Failures {
		t.Errorf("%v", f)
	}
	min := Shrink(rep.Failures[0].Config, func(c Config) bool { return h.Check(c) != nil })
	t.Errorf("minimal repro: ripsbench difftest -config %q", min.String())
}

// TestCheckRejectsBadConfig pins that malformed configurations surface
// as config failures, not panics deep in a backend.
func TestCheckRejectsBadConfig(t *testing.T) {
	h := NewHarness()
	defer h.Close()
	for _, cfg := range []Config{
		{App: "nope", Topology: "mesh", Rows: 1, Cols: 1, Workers: 1},
		{App: "mg", Topology: "hypercube", Workers: 3},
		{App: "mg", Topology: "ring", Workers: 4},
	} {
		f := h.Check(cfg)
		if f == nil || f.Backend != "config" {
			t.Errorf("Check(%+v) = %v, want config failure", cfg, f)
		}
	}
}

// TestShrink drives the shrinker with a synthetic predicate and checks
// every axis is minimized: the committed config must keep only what
// the predicate needs and drop every incidental coordinate.
func TestShrink(t *testing.T) {
	start := Config{
		App: "nq13", Topology: "hypercube", Workers: 8,
		Local: ripsrt.Eager, Global: ripsrt.All, Domains: 3, Seed: 21,
	}
	// The "bug" needs the ALL policy and at least 2 workers; nothing
	// else matters.
	fails := func(c Config) bool { return c.Global == ripsrt.All && c.Workers >= 2 }
	if !fails(start) {
		t.Fatal("synthetic predicate rejects the starting config")
	}
	min := Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("Shrink returned a passing config %v", min)
	}
	want := Config{App: "mg", Topology: "mesh", Rows: 1, Cols: 2, Workers: 2, Global: ripsrt.All, Domains: 1}
	if min != want {
		t.Fatalf("Shrink(%v) = %v, want %v", start, min, want)
	}
}

// TestShrinkKeepsFailingStart pins that an unshrinkable failure comes
// back unchanged rather than sliding to a passing config.
func TestShrinkKeepsFailingStart(t *testing.T) {
	start := Config{App: "gauss", Topology: "tree", Workers: 7, Seed: 13}
	fails := func(c Config) bool { return c == start }
	if min := Shrink(start, fails); min != start {
		t.Fatalf("Shrink moved an unshrinkable config: %v -> %v", start, min)
	}
}

// TestConfigStringParseRoundTrip pins that every sampled config prints
// to a string Parse maps back to the identical struct — the property
// the repro workflow (test log -> ripsbench -config) depends on.
func TestConfigStringParseRoundTrip(t *testing.T) {
	for _, smoke := range []bool{true, false} {
		for _, cfg := range Sample(100, 7, smoke) {
			got, err := Parse(cfg.String())
			if err != nil {
				t.Fatalf("Parse(%q): %v", cfg.String(), err)
			}
			if got != cfg {
				t.Fatalf("roundtrip %q: got %+v, want %+v", cfg.String(), got, cfg)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"topo=mesh:2x2",
		"app=unknown",
		"app=mg topo=mesh:2",
		"app=mg topo=hypercube:3",
		"app=mg policy=sometimes-lazy",
		"app=mg policy=any",
		"app=mg seed=later",
		"app=mg domains=x",
		"app=mg domains=-1",
		"app=mg color=blue",
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// TestParseDefaults pins the documented default machine.
func TestParseDefaults(t *testing.T) {
	got, err := Parse("app=fft")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{App: "fft", Topology: "mesh", Rows: 2, Cols: 2, Workers: 4}
	if got != want {
		t.Fatalf("Parse defaults = %+v, want %+v", got, want)
	}
}

// TestSampleCoverage pins the stratification contract: a sample of
// n >= pool size covers every app in the pool, smoke samples exclude
// heavy apps, and distinct master seeds draw distinct samples.
func TestSampleCoverage(t *testing.T) {
	heavy := map[string]bool{}
	total := 0
	for _, s := range Apps() {
		heavy[s.Name] = s.Heavy
		total++
	}

	smoke := Sample(40, 3, true)
	seen := map[string]int{}
	topos := map[string]bool{}
	for _, c := range smoke {
		if err := c.validate(); err != nil {
			t.Fatalf("sampled invalid config %+v: %v", c, err)
		}
		if heavy[c.App] {
			t.Fatalf("smoke sample drew heavy app %q", c.App)
		}
		seen[c.App]++
		topos[c.Topology] = true
	}
	for name, isHeavy := range heavy {
		if !isHeavy && seen[name] == 0 {
			t.Errorf("smoke sample of 40 missed app %q", name)
		}
	}
	for _, k := range []string{"mesh", "tree", "hypercube"} {
		if !topos[k] {
			t.Errorf("sample of 40 missed topology %q", k)
		}
	}

	full := Sample(2*total, 3, false)
	seen = map[string]int{}
	for _, c := range full {
		seen[c.App]++
	}
	for name := range heavy {
		if seen[name] != 2 {
			t.Errorf("full sample of %d drew app %q %d times, want 2", 2*total, name, seen[name])
		}
	}

	a, b := Sample(10, 1, true), Sample(10, 2, true)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("samples with different master seeds are identical")
	}
}

// TestConcurrentExecute is the real-execution-safety audit as a test:
// every app in the lattice has its whole task tree executed by
// concurrently racing goroutines sharing one instance, and the summed
// contributions must equal the sequential profile. Run under -race
// this catches any Execute that mutates construction state — the
// property that admits an app into the parallel backends at all.
func TestConcurrentExecute(t *testing.T) {
	for _, spec := range Apps() {
		if spec.Heavy {
			continue
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			a := spec.New()
			p := app.Measure(a)
			tasks, work, result := executeRacing(a, 4)
			if tasks != int64(p.Tasks) || work != p.Work || result != p.Result {
				t.Fatalf("concurrent execution: tasks=%d work=%v result=%d, want %d %v %d",
					tasks, work, result, p.Tasks, p.Work, p.Result)
			}
		})
	}
}

// executeRacing runs a's task tree round by round on nw goroutines
// pulling from one shared stack — maximal contention, no backend
// machinery — and returns the summed totals.
func executeRacing(a app.App, nw int) (tasks int64, work sim.Time, result int64) {
	var (
		mu      sync.Mutex
		queue   []app.Spawn
		pending atomic.Int64
		nTasks  atomic.Int64
		nWork   atomic.Int64
		nResult atomic.Int64
	)
	pop := func() (app.Spawn, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			return app.Spawn{}, false
		}
		sp := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		return sp, true
	}
	for round := 0; round < a.Rounds(); round++ {
		roots := a.Roots(round)
		queue = append(queue, roots...)
		pending.Store(int64(len(roots)))
		var wg sync.WaitGroup
		for i := 0; i < nw; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pending.Load() > 0 {
					sp, ok := pop()
					if !ok {
						runtime.Gosched()
						continue
					}
					var children []app.Spawn
					vw, res := app.ExecuteCount(a, sp.Payload(), func(c app.Spawn) {
						children = append(children, c)
					})
					nTasks.Add(1)
					nWork.Add(int64(vw))
					nResult.Add(res)
					if len(children) > 0 {
						pending.Add(int64(len(children)))
						mu.Lock()
						queue = append(queue, children...)
						mu.Unlock()
					}
					pending.Add(-1)
				}
			}()
		}
		wg.Wait()
	}
	return nTasks.Load(), sim.Time(nWork.Load()), nResult.Load()
}
