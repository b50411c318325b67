package par

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/sched"
	"rips/internal/topo"
)

// TestPartitionWaves drives the wave partition on a hand-built
// forwarding chain: every move sources tasks that the previous move
// has yet to deliver, so each move must land in its own wave.
func TestPartitionWaves(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(1, 4), App: queens8()}
	r := newEngineRun(&cfg)
	copy(r.loads, []int{8, 0, 0, 0})
	ids := pushFresh(r.workers[0], 8)

	chain := []sched.Move{{From: 0, To: 1, Count: 6}, {From: 1, To: 2, Count: 4}, {From: 2, To: 3, Count: 2}}
	r.stageMoves(chain)
	r.waveEnds = partitionInWaves(r.moves, r.loads, r.avail, r.pend, r.waveEnds)
	if len(r.waveEnds) != 3 {
		t.Fatalf("waveEnds = %v, want one wave per forwarding hop (3)", r.waveEnds)
	}
	for wv, end := range r.waveEnds {
		if end != wv+1 {
			t.Errorf("wave %d ends at move %d, want %d", wv, end, wv+1)
		}
	}

	// Replay the waves (single-threaded here; concurrency is covered by
	// TestParallelApplyConcurrent) and check the chain really lands.
	for wv := 0; wv < len(r.waveEnds); wv++ {
		for _, w := range r.workers {
			r.applyTake(w, wv)
		}
		for _, w := range r.workers {
			r.applyPush(w, wv)
		}
	}
	for _, w := range r.workers {
		drainKnown(t, w, 2, ids)
	}
	if len(ids) != 0 {
		t.Errorf("%d tasks lost in the forwarding chain", len(ids))
	}
}

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

// drainKnown empties w's deque, which must hold exactly want tasks,
// each of them still in ids; it strikes out the ones it finds.
func drainKnown(t *testing.T, w *engineWorker, want int, ids map[uint64]bool) {
	t.Helper()
	if got := int(w.d.size()); got != want {
		t.Errorf("worker %d holds %d tasks, want %d", w.id, got, want)
	}
	for tk := w.d.pop(); tk != nil; tk = w.d.pop() {
		if !ids[tk.id] {
			t.Errorf("worker %d holds duplicated or unknown task %d", w.id, tk.id)
		}
		delete(ids, tk.id)
	}
}

// TestParallelApplyConcurrent runs one full system phase with every
// worker applying its share of the plan concurrently (real goroutines,
// real sub-barriers — under -race and -tags ripsperturb this is the
// adversarial interleaving test for the exchange protocol). The phase
// must land the exact canonical quota on every worker and preserve the
// task multiset.
func TestParallelApplyConcurrent(t *testing.T) {
	for _, tp := range []topo.Topology{
		topo.NewMesh(1, 8), // chain: maximal forwarding depth
		topo.NewMesh(4, 4),
		topo.NewTree(7),
		topo.NewHypercube(3),
	} {
		t.Run(tp.Name(), func(t *testing.T) {
			cfg := Config{Topo: tp, App: queens8(), ParallelApplyMin: -1}
			r := newEngineRun(&cfg)
			n := tp.Size()
			const total = 203 // awkward remainder so quotas differ by one
			ids := pushFresh(r.workers[0], total)

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

			if r.waves == 0 {
				t.Error("no waves fanned out despite ParallelApplyMin < 0")
			}
			for i, w := range r.workers {
				quota := total / n
				if i < total%n {
					quota++
				}
				drainKnown(t, w, quota, ids)
			}
			if len(ids) != 0 {
				t.Errorf("%d tasks lost by the parallel apply", len(ids))
			}
		})
	}
}

// TestApplyModesAgree proves the apply strategy is answer-invisible:
// default thresholding, forced serial, and forced parallel application
// must execute the identical task decomposition.
func TestApplyModesAgree(t *testing.T) {
	base := Config{Topo: topo.NewMesh(2, 2), App: queens8()}
	ref := mustRun(t, base)
	checkQueens8(t, ref, "RIPS default apply")

	serial := base
	serial.ParallelApplyMin = math.MaxInt
	sres := mustRun(t, serial)
	if sres.Waves != 0 {
		t.Errorf("ParallelApplyMin = MaxInt fanned out %d waves", sres.Waves)
	}

	forced := base
	forced.ParallelApplyMin = -1
	pres := mustRun(t, forced)
	if pres.Migrated > 0 && pres.Waves == 0 {
		t.Errorf("forced parallel apply migrated %d tasks in zero waves", pres.Migrated)
	}

	for label, res := range map[string]Result{"serial": sres, "parallel": pres} {
		if res.AppResult != ref.AppResult || res.Generated != ref.Generated ||
			res.Executed != ref.Executed || res.VirtualWork != ref.VirtualWork {
			t.Errorf("%s apply diverges from default: result %d/%d generated %d/%d work %v/%v",
				label, res.AppResult, ref.AppResult, res.Generated, ref.Generated,
				res.VirtualWork, ref.VirtualWork)
		}
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

// TestPhaseSummaryBounded checks the default (no TracePhases) run keeps
// only the bounded summary: no trace, but count/sum/max populated.
func TestPhaseSummaryBounded(t *testing.T) {
	res := mustRun(t, Config{Topo: topo.NewMesh(2, 2), App: queens8()})
	if res.PhaseTotals != nil {
		t.Errorf("PhaseTotals recorded without TracePhases: %d entries", len(res.PhaseTotals))
	}
	if res.Phases == 0 || res.PhaseSum <= 0 || res.PhaseMax <= 0 {
		t.Errorf("phase summary empty: phases=%d sum=%d max=%d", res.Phases, res.PhaseSum, res.PhaseMax)
	}
	if int64(res.PhaseMax) > res.PhaseSum {
		t.Errorf("PhaseMax %d exceeds PhaseSum %d", res.PhaseMax, res.PhaseSum)
	}
}
