package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/topo"
)

// pushFresh pushes n new tasks of w's own onto its deque and returns
// the set of their IDs.
func pushFresh(w *engineWorker, n int) map[uint64]bool {
	ids := map[uint64]bool{}
	for i := 0; i < n; i++ {
		tk := &node{id: w.newID(), origin: w.id}
		ids[tk.id] = true
		w.d.push(tk)
	}
	return ids
}

// drainKnown empties w's deque, every task of which must still be in
// ids; it strikes out the ones it finds and returns how many there were.
func drainKnown(t *testing.T, w *engineWorker, ids map[uint64]bool) int {
	t.Helper()
	n := 0
	for tk := w.d.pop(); tk != nil; tk = w.d.pop() {
		if !ids[tk.id] {
			t.Errorf("worker %d holds duplicated or unknown task %d", w.id, tk.id)
		}
		delete(ids, tk.id)
		n++
	}
	return n
}

// TestApplyLandsCanonicalQuota runs one full system phase through
// phaseStep with every worker on a goroutine of its own (under -race
// and -tags ripsperturb the arrivals at the barrier are adversarial).
// The phase must be one crossing of the epoch barrier, land the exact
// canonical quota on every domain and preserve the task multiset. The
// 1x8 chain is the forwarding case: every move but the first sources
// tasks the move before it delivered. The Hybrid machine is 8 workers
// in 4 two-worker domains with the load on both workers of domain 0:
// its export is larger than either deque, so a take sweeps both, and a
// push splits its tasks between the two workers it lands on.
func TestApplyLandsCanonicalQuota(t *testing.T) {
	for _, cfg := range []Config{
		{Topo: topo.NewMesh(1, 8)},
		{Topo: topo.NewMesh(4, 4)},
		{Topo: topo.NewTree(7)},
		{Topo: topo.NewHypercube(3)},
		{Topo: topo.NewMesh(2, 4), Strategy: Hybrid, Domains: 4},
	} {
		cfg.App = queens8()
		name := cfg.Topo.Name()
		if cfg.Strategy == Hybrid {
			name = "hybrid " + name
		}
		t.Run(name, func(t *testing.T) {
			r := newEngineRun(&cfg)
			const total = 203 // awkward remainder so quotas differ by one
			ids := pushFresh(r.workers[0], total/2)
			for id := range pushFresh(r.workers[r.doms[0].hi-1], total-total/2) {
				ids[id] = true
			}

			before := r.bar.epoch
			var wg sync.WaitGroup
			for _, w := range r.workers {
				wg.Add(1)
				go func(w *engineWorker) {
					defer wg.Done()
					var point int64
					if !r.phaseStep(w, &point) {
						t.Error("phaseStep reported the run done mid-round")
					}
				}(w)
			}
			wg.Wait()

			if got := r.bar.epoch - before; got != 1 {
				t.Errorf("one system phase crossed the epoch barrier %d times, want 1", got)
			}
			if r.migrated == 0 || r.doms[0].migrated == 0 {
				t.Errorf("migrated %d tasks, %d of them out of domain 0; the skew needs a plan", r.migrated, r.doms[0].migrated)
			}
			for _, dom := range r.doms {
				quota := total / r.nd
				if dom.id < total%r.nd {
					quota++
				}
				held := 0
				for _, w := range r.workers[dom.lo:dom.hi] {
					n := drainKnown(t, w, ids)
					if n == 0 && dom.migrated == 0 {
						t.Errorf("worker %d of domain %d, which only received, was left empty", w.id, dom.id)
					}
					held += n
				}
				if held != quota {
					t.Errorf("domain %d holds %d tasks, want the canonical quota %d", dom.id, held, quota)
				}
			}
			if len(ids) != 0 {
				t.Errorf("%d tasks lost by the apply", len(ids))
			}
		})
	}
}

// TestAdaptiveDetector unit-tests the EWMA wait: starved phases climb
// to the cap, productive phases fall back to the base, and the
// constant/disabled Config overrides bypass adaptation entirely.
func TestAdaptiveDetector(t *testing.T) {
	const n = 64
	var cancel atomic.Bool
	d := newDetector(&Config{}, n, &cancel)
	for i := 0; i < 64; i++ {
		d.update(0, n)
	}
	if want := adaptMaxFactor * DefaultDetectInterval; d.wait != want {
		t.Errorf("starved detector wait = %v, want cap %v", d.wait, want)
	}
	for i := 0; i < 64; i++ {
		d.update(8*n, n)
	}
	if d.wait != DefaultDetectInterval {
		t.Errorf("productive detector wait = %v, want base %v", d.wait, DefaultDetectInterval)
	}

	dc := newDetector(&Config{DetectInterval: time.Millisecond}, n, &cancel)
	dc.update(0, n)
	if got := dc.current(); got != time.Millisecond {
		t.Errorf("constant override wait = %v, want %v", got, time.Millisecond)
	}
	dd := newDetector(&Config{DetectInterval: -1}, n, &cancel)
	if got := dd.current(); got != 0 {
		t.Errorf("disabled detector wait = %v, want 0", got)
	}
}

// TestDetectModesAgree cross-validates detector timing against the
// answer: adaptive, constant and disabled waits may only change when
// phases happen, never what is computed.
func TestDetectModesAgree(t *testing.T) {
	var ref Result
	for i, interval := range []time.Duration{0, 50 * time.Microsecond, -1} {
		res := mustRun(t, Config{
			Topo:           topo.NewMesh(2, 2),
			App:            queens8(),
			DetectInterval: interval,
		})
		checkQueens8(t, res, "RIPS detect interval "+interval.String())
		if i == 0 {
			ref = res
			continue
		}
		if res.AppResult != ref.AppResult || res.Generated != ref.Generated ||
			res.VirtualWork != ref.VirtualWork {
			t.Errorf("detect interval %v diverges: result %d/%d generated %d/%d",
				interval, res.AppResult, ref.AppResult, res.Generated, ref.Generated)
		}
	}
}
