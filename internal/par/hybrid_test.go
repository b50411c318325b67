package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"rips/internal/affinity"
	"rips/internal/ripsrt"
	"rips/internal/topo"
)

// withAffinity swaps the package's affinity hooks for the duration of
// the test, simulating a machine with the given domains (and, when pin
// is non-nil, the given pinning behavior) regardless of what the host
// actually looks like.
func withAffinity(t *testing.T, doms []affinity.Domain, pin func([]int) (func(), error)) {
	t.Helper()
	oldDoms, oldPin := affinityDomains, affinityPin
	affinityDomains = func() []affinity.Domain { return doms }
	if pin != nil {
		affinityPin = pin
	}
	t.Cleanup(func() { affinityDomains, affinityPin = oldDoms, oldPin })
}

// twoNodes is a synthetic two-domain machine whose CPU sets both name
// CPU 0, so pinning succeeds on any host.
func twoNodes() []affinity.Domain {
	return []affinity.Domain{{Node: 0, CPUs: []int{0}}, {Node: 1, CPUs: []int{0}}}
}

// TestHybridPolicies runs every Local x Global combination over a real
// mesh split into two domains and checks the answer never depends on
// the policy — the hybrid analogue of TestRIPSPolicies.
func TestHybridPolicies(t *testing.T) {
	for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
		for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
			cfg := Config{
				Topo:     topo.NewMesh(2, 2),
				App:      queens8(),
				Strategy: Hybrid,
				Domains:  2,
				Local:    local,
				Global:   global,
			}
			trace := tracePhases(&cfg)
			res := mustRun(t, cfg)
			totals := *trace
			label := "hybrid " + global.String() + "-" + local.String()
			checkQueens8(t, res, label)
			if res.Domains != 2 {
				t.Errorf("%s: Domains = %d, want 2", label, res.Domains)
			}
			if res.Phases == 0 || len(totals) != int(res.Phases) {
				t.Fatalf("%s: %d system phases, %d reported to OnPhase", label, res.Phases, len(totals))
			}
			if totals[len(totals)-1] != 0 {
				t.Errorf("%s: final phase total %d, want 0 (termination)", label, totals[len(totals)-1])
			}
			if res.CrossSteals != 0 {
				t.Errorf("%s: %d cross-domain steals; hybrid stealing must stay in-domain", label, res.CrossSteals)
			}
			var ds, dm int64
			for _, v := range res.DomainSteals {
				ds += v
			}
			for _, v := range res.DomainMigrated {
				dm += v
			}
			if ds != res.Steals || dm != res.Migrated {
				t.Errorf("%s: domain breakdowns sum to %d/%d, totals are %d/%d",
					label, ds, dm, res.Steals, res.Migrated)
			}
		}
	}
}

// TestHybridTopologies checks the domain-level tree and hypercube
// planners drive system phases just like the mesh, across domain
// counts that do and do not divide the worker count.
func TestHybridTopologies(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 1),
		topo.NewMesh(4, 2),
		topo.NewTree(7),
		topo.NewHypercube(3),
	} {
		for _, domains := range []int{0, 1, 2, 3} {
			res := mustRun(t, Config{Topo: tp, App: queens8(), Strategy: Hybrid, Domains: domains})
			label := fmt.Sprintf("hybrid on %s domains=%d", tp.Name(), domains)
			checkQueens8(t, res, label)
			if res.Domains < 1 || res.Domains > tp.Size() {
				t.Errorf("%s: resolved Domains = %d outside [1, %d]", label, res.Domains, tp.Size())
			}
			if len(res.DomainSteals) != res.Domains || len(res.DomainMigrated) != res.Domains {
				t.Errorf("%s: breakdown lengths %d/%d, want %d",
					label, len(res.DomainSteals), len(res.DomainMigrated), res.Domains)
			}
		}
	}
}

// TestResolveDomains unit-tests domain-count resolution: auto-detect,
// clamping to the worker count, and power-of-two rounding on
// hypercubes. Resolution must be total — every input yields a count in
// [1, workers].
func TestResolveDomains(t *testing.T) {
	withAffinity(t, twoNodes(), nil)
	cases := []struct {
		requested, workers int
		hypercube          bool
		want               int
	}{
		{0, 8, false, 2},   // auto-detect: the synthetic machine has 2 nodes
		{0, 1, false, 1},   // ... clamped to a single worker
		{4, 8, false, 4},   // explicit count
		{8, 3, false, 3},   // more domains than workers: one worker each
		{3, 8, true, 2},    // hypercube rounds down to a power of two
		{5, 16, true, 4},   // ... and 5 -> 4
		{1, 8, true, 1},    // 1 is a power of two
		{6, 4, true, 4},    // clamp then round: 6 -> 4 -> 4
		{7, 100, false, 7}, // plenty of room: unchanged
	}
	for _, c := range cases {
		if got := resolveDomains(c.requested, c.workers, c.hypercube); got != c.want {
			t.Errorf("resolveDomains(%d, %d, %v) = %d, want %d",
				c.requested, c.workers, c.hypercube, got, c.want)
		}
	}
}

// TestDomainBlocks checks the contiguous near-even partition and its
// inversion, including the non-divisible case.
func TestDomainBlocks(t *testing.T) {
	blocks := domainBlocks(7, 3)
	want := [][2]int{{0, 3}, {3, 5}, {5, 7}}
	for d := range blocks {
		if blocks[d] != want[d] {
			t.Fatalf("domainBlocks(7, 3) = %v, want %v", blocks, want)
		}
	}
	domOf := workerDomains(blocks, 7)
	for i, d := range []int{0, 0, 0, 1, 1, 2, 2} {
		if domOf[i] != d {
			t.Errorf("workerDomains[%d] = %d, want %d", i, domOf[i], d)
		}
	}
}

// TestDomainTopologyMirrorsMachine checks the domain-level virtual
// machine keeps the machine's kind, so the same walking algorithm
// plans at both granularities.
func TestDomainTopologyMirrorsMachine(t *testing.T) {
	if _, ok := MirrorTopology(topo.NewTree(15), 4).(*topo.Tree); !ok {
		t.Error("tree machine did not yield a tree domain topology")
	}
	if hc, ok := MirrorTopology(topo.NewHypercube(4), 4).(*topo.Hypercube); !ok || hc.Size() != 4 {
		t.Errorf("hypercube machine yielded %T size %d, want 4-node hypercube", hc, hc.Size())
	}
	if _, ok := MirrorTopology(topo.NewMesh(4, 4), 3).(*topo.Mesh); !ok {
		t.Error("mesh machine did not yield a mesh domain topology")
	}
	if dt := MirrorTopology(topo.NewHypercube(3), 1); dt.Size() != 1 {
		t.Errorf("single-domain topology has size %d, want 1", dt.Size())
	}
}

// TestHybridSingleDomainDegenerates checks the nd=1 degeneration: the
// whole machine is one stealing pool, so system phases never plan a
// migration — the run is pure stealing punctuated by (cheap) phase
// barriers.
func TestHybridSingleDomainDegenerates(t *testing.T) {
	res := mustRun(t, Config{
		Topo:     topo.NewMesh(2, 2),
		App:      queens8(),
		Strategy: Hybrid,
		Domains:  1,
	})
	checkQueens8(t, res, "hybrid single-domain")
	if res.Domains != 1 {
		t.Fatalf("Domains = %d, want 1", res.Domains)
	}
	if res.Migrated != 0 {
		t.Errorf("single domain migrated %d tasks; nothing should be planned", res.Migrated)
	}
	if res.Phases == 0 {
		t.Error("no system phases ran; round detection still needs them")
	}
}

// TestHybridWorkersFewerThanDomains asks for more domains than
// workers: resolution clamps to one worker per domain and the run
// still completes correctly.
func TestHybridWorkersFewerThanDomains(t *testing.T) {
	res := mustRun(t, Config{
		Topo:     topo.NewMesh(2, 1),
		App:      queens8(),
		Strategy: Hybrid,
		Domains:  8,
	})
	checkQueens8(t, res, "hybrid workers<domains")
	if res.Domains != 2 {
		t.Errorf("Domains = %d, want clamp to 2 workers", res.Domains)
	}
	if res.Steals != 0 {
		t.Errorf("%d steals with single-worker domains; there is nobody to steal from", res.Steals)
	}
}

// TestHybridPinFallback injects a synthetic two-node machine whose
// pinning always fails: every worker must fall back to running
// unpinned and the answer must be unaffected. The successful-pinning
// leg then checks pin and restore are actually exercised once per
// worker.
func TestHybridPinFallback(t *testing.T) {
	var pins, restores atomic.Int64
	withAffinity(t, twoNodes(), func(cpus []int) (func(), error) {
		return nil, errors.New("synthetic pin failure")
	})
	res := mustRun(t, Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Hybrid})
	checkQueens8(t, res, "hybrid with failing pin")
	if res.Domains != 2 {
		t.Errorf("Domains = %d, want the synthetic machine's 2", res.Domains)
	}

	affinityPin = func(cpus []int) (func(), error) {
		if len(cpus) == 0 {
			t.Error("pin called with an empty CPU set")
		}
		pins.Add(1)
		return func() { restores.Add(1) }, nil
	}
	res = mustRun(t, Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Hybrid})
	checkQueens8(t, res, "hybrid with recording pin")
	if pins.Load() != 4 || restores.Load() != 4 {
		t.Errorf("pin/restore called %d/%d times, want 4/4 (one per worker)",
			pins.Load(), restores.Load())
	}
}

// TestHybridSingleNodeMachineSkipsPinning checks that on a machine
// with one visible affinity domain no worker attempts to pin at all —
// constraining a thread to every CPU is a no-op.
func TestHybridSingleNodeMachineSkipsPinning(t *testing.T) {
	withAffinity(t, []affinity.Domain{{Node: 0, CPUs: []int{0}}}, func(cpus []int) (func(), error) {
		t.Error("pin called on a single-node machine")
		return func() {}, nil
	})
	res := mustRun(t, Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Hybrid})
	checkQueens8(t, res, "hybrid on single-node machine")
	if res.Domains != 1 {
		t.Errorf("Domains = %d, want auto-detected 1", res.Domains)
	}
}

// TestRIPSParameterisation checks what RIPS makes of the engine on a
// machine faked to two NUMA nodes: one domain per worker, the planner on
// the 2x2 mesh itself rather than the 1x4 chain a four-domain Hybrid
// mirrors it into, nobody to steal from (so no victim RNG and no sweep),
// oldest-first pops — and no worker ever pins.
func TestRIPSParameterisation(t *testing.T) {
	withAffinity(t, twoNodes(), func([]int) (func(), error) {
		t.Error("pin called under RIPS")
		return func() {}, nil
	})
	cfg := Config{Topo: topo.NewMesh(2, 2), App: queens8()}
	r := newEngineRun(&cfg)
	if r.nd != 4 || r.dtopo != cfg.Topo || r.classes != 0 {
		t.Errorf("nd=%d classes=%d planner on %s; want 4 domains, no classes, the machine's own %s",
			r.nd, r.classes, r.dtopo.Name(), cfg.Topo.Name())
	}
	for _, w := range r.workers {
		if dom := r.doms[w.dom]; dom.size() != 1 || len(dom.cpus) != 0 || !w.fifo || w.rng != nil || w.sweep != nil {
			t.Errorf("worker %d: domain of %d with cpus %v, fifo=%v rng=%v sweep set=%v; want alone, unpinned, fifo, no steal state",
				w.id, dom.size(), dom.cpus, w.fifo, w.rng, w.sweep != nil)
		}
	}
	hybrid := Config{Topo: cfg.Topo, App: cfg.App, Strategy: Hybrid, Domains: 4}
	if h := newEngineRun(&hybrid); h.dtopo.Name() != topo.NewMesh(1, 4).Name() {
		t.Errorf("four-domain Hybrid plans on %s, want the 1x4 chain mirror", h.dtopo.Name())
	}
	checkQueens8(t, mustRun(t, cfg), "RIPS on a faked two-node machine")
}

// TestHybridCancel aborts mid-flight hybrid runs on every policy pair:
// workers must unwind through the epoch barrier promptly, including
// any worker waiting in the detector.
func TestHybridCancel(t *testing.T) {
	for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
		for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
			runCanceled(t, Config{
				Topo:     topo.NewMesh(2, 2),
				App:      bigQueens(),
				Strategy: Hybrid,
				Domains:  2,
				Local:    local,
				Global:   global,
			})
		}
	}
}

// TestHybridValidate covers the Domains-specific validation paths.
func TestHybridValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Hybrid, Domains: -1}, "negative Domains"},
		{Config{Topo: topo.NewMesh(2, 2), App: queens8(), Domains: 2}, "not RIPS"},
		{Config{Topo: topo.NewRing(4), App: queens8(), Strategy: Hybrid}, "no system-phase planner"},
	}
	for _, c := range cases {
		_, err := Run(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v) error = %v, want substring %q", c.cfg, err, c.want)
		}
	}
	// Steal accepts Domains purely as classification.
	res := mustRun(t, Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Steal, Domains: 2})
	checkQueens8(t, res, "steal with domains")
	if res.Domains != 2 {
		t.Errorf("steal Domains = %d, want 2", res.Domains)
	}
	var ds int64
	for _, v := range res.DomainSteals {
		ds += v
	}
	if ds != res.Steals {
		t.Errorf("steal domain breakdown sums to %d, total is %d", ds, res.Steals)
	}
	if res.CrossSteals > res.Steals {
		t.Errorf("cross-domain steals %d exceed total steals %d", res.CrossSteals, res.Steals)
	}
}

// TestHybridPoolMatchesRun checks the pool driver runs the hybrid
// protocol identically to fresh goroutines.
func TestHybridPoolMatchesRun(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cfg := Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Hybrid, Domains: 2}
	direct := mustRun(t, cfg)
	pooled, err := p.Run(cfg)
	if err != nil {
		t.Fatalf("pool Run: %v", err)
	}
	if pooled.AppResult != direct.AppResult || pooled.Generated != direct.Generated {
		t.Errorf("pooled hybrid run diverges: result %d/%d generated %d/%d",
			pooled.AppResult, direct.AppResult, pooled.Generated, direct.Generated)
	}
}

// TestTakeTopInto unit-tests the quiescent bulk take: tasks leave from
// the steal end in FIFO order, the remainder pops LIFO as usual, and
// over-asking takes exactly what is there.
func TestTakeTopInto(t *testing.T) {
	d := newDeque()
	tasks := make([]node, 6)
	for i := range tasks {
		tasks[i] = node{id: uint64(i)}
		d.push(&tasks[i])
	}
	dst := make([]*node, 4)
	if got := d.takeTopInto(dst); got != 4 {
		t.Fatalf("takeTopInto(4 of 6) = %d", got)
	}
	for i := 0; i < 4; i++ {
		if dst[i].id != uint64(i) {
			t.Errorf("taken[%d].ID = %d, want %d (FIFO from the steal end)", i, dst[i].id, i)
		}
	}
	if tk := d.pop(); tk == nil || tk.id != 5 {
		t.Errorf("pop after bulk take = %v, want ID 5 (LIFO bottom)", tk)
	}
	big := make([]*node, 8)
	if got := d.takeTopInto(big); got != 1 || big[0].id != 4 {
		t.Errorf("takeTopInto(8 of 1) = %d, big[0]=%v; want 1 task with ID 4", got, big[0])
	}
	if got := d.takeTopInto(big); got != 0 {
		t.Errorf("takeTopInto(empty) = %d, want 0", got)
	}
}

// TestHybridStrategyString pins the new enum rendering.
func TestHybridStrategyString(t *testing.T) {
	if Hybrid.String() != "hybrid" {
		t.Fatalf("Hybrid.String() = %q", Hybrid.String())
	}
}
