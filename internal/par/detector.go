//ripslint:allow-file wallclock the detector interval is a wall-clock deadline by definition; it shifts when phases happen, never what is computed

package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

// detector is the ANY-policy transfer detector shared by every
// strategy. A transfer is requested for user phase p by publishing p in
// req; workers holding tasks honour it after the task in hand. Two
// things publish it:
//
//   - the worker whose drain makes the drained count reach the worker
//     count, at once: nobody is left to create work, so the round
//     boundary (or the end of the run) is detected with no wait at all;
//   - a drained worker whose detector interval ran out while some
//     other worker was still busy. The interval adapts: an EWMA of
//     tasks moved per system phase stretches it, so near-empty phases
//     back off automatically. Steal has no interval: a phase moves
//     nothing there, so only the count ever asks for the barrier.
//
// A member-mode run (member.go) has a third: whoever owns the wire asks
// from outside the run (MemberRun.RequestTransfer holds req at its
// maximum, which every phase index honours) when another member's drain
// made the coordinator stop the world. It has no interval either — its
// workers balance by stealing, and what crosses members is planned
// elsewhere.
//
// The leader resets the count and updates the EWMA inside the epoch
// barrier; workers touch req and drained between barriers. Only the
// timing of phases depends on any of it — the computed answer never
// does, which difftest cross-validates.
type detector struct {
	cfg    *Config
	n      int          // workers sharing the detector
	cancel *atomic.Bool // the run's abort flag
	// never marks a detector without an interval (Steal, member mode):
	// only the drained count, or a raise from outside, requests a transfer.
	never bool
	ewma  float64
	wait  time.Duration

	// req is the highest user-phase index for which a transfer has been
	// requested (-1 initially) — the phase-indexed init broadcast of the
	// simulator runtime, with redundant initiators cancelled by a
	// compare-and-swap instead of by message filtering.
	req atomic.Int64
	// drained counts the workers in the drained state of the current
	// user phase. Under RIPS it is exact (a drained worker receives no
	// work outside a system phase). Under Hybrid and Steal a worker that
	// steals leaves the state again, and a count read just before it
	// does — the thief holds the stolen task, its victim drains and
	// counts itself last — can open one early phase. That costs a barrier
	// crossing and nothing else: the thief executes the task in hand
	// before it honours the request, and the barrier snapshot stays the
	// only authority on totals, so answers and conservation are
	// untouched.
	drained atomic.Int32
}

func newDetector(cfg *Config, n int, cancel *atomic.Bool) *detector {
	d := &detector{cfg: cfg, n: n, cancel: cancel, never: cfg.Strategy == Steal || cfg.member != nil, wait: DefaultDetectInterval}
	d.req.Store(-1)
	return d
}

// noTimeout is the interval of a detector that never times out.
const noTimeout = time.Duration(math.MaxInt64)

// current is the interval to apply now: none under Steal and in member
// mode, the constant Config override when set, otherwise the adaptive
// interval derived from phase yield (leader-written inside the barrier,
// so the read is ordered by the barrier release).
func (d *detector) current() time.Duration {
	if d.never {
		return noTimeout
	}
	if d.cfg.DetectInterval != 0 {
		return d.cfg.detectInterval()
	}
	return d.wait
}

// requested reports whether a transfer has been requested for phase.
func (d *detector) requested(phase int64) bool { return d.req.Load() >= phase }

// await is called by worker id once it has drained in user phase
// phase, and returns when the phase's transfer is requested — by this
// call if it is the one that completes the drained count, or if the
// detector interval runs out first — or the run is canceled. While
// some other worker is still busy it yields the processor between
// looks at the request word, the abort flag and the clock, so each of
// the three ends the wait within one scheduling quantum; a timer sleep
// would round every one of them up to the kernel's ~1 ms granularity.
// poll, when non-nil, is tried on every turn: a task it returns takes
// the worker out of the drained state and is handed to the caller to
// execute (the steal sweep of Hybrid and Steal; nil under RIPS).
func (d *detector) await(id int, phase int64, poll func() *node) *node {
	if int(d.drained.Add(1)) < d.n {
		interval, start := d.current(), time.Now()
		for !d.requested(phase) && !d.cancel.Load() && time.Since(start) < interval {
			if poll != nil {
				//ripslint:allow hotpath poll is nil under RIPS; under Hybrid and Steal it is the worker's pre-bound steal sweep, which only probes deque tops — a function value the traversal cannot name
				if t := poll(); t != nil {
					d.drained.Add(-1)
					return t
				}
			}
			runtime.Gosched()
		}
	}
	if d.cancel.Load() {
		return nil // abort: no point requesting a transfer nobody will serve
	}
	// Perturbation point: delay the request so redundant initiators of
	// the same phase really race each other.
	perturb(id, phase)
	for {
		cur := d.req.Load()
		if cur >= phase || d.req.CompareAndSwap(cur, phase) {
			return nil // ours, or a concurrent initiator's: redundant inits cancel
		}
	}
}

// Adaptive-detector constants: the EWMA keeps adaptEwmaOld of its
// history per phase, and the interval stretches from
// DefaultDetectInterval (phases moving >= one task per party) up to
// adaptMaxFactor times that as the moved-tasks EWMA approaches zero.
const (
	adaptEwmaOld   = 0.75
	adaptMaxFactor = 32
)

// update closes a system phase, with the world stopped: it clears the
// drained count for the user phase about to start, folds the finished
// phase's migration volume into the EWMA and re-derives the adaptive
// interval. Phases that move little work are pure overhead, so a
// falling EWMA backs the next request off — which removes the one
// tuning knob the backend had (ROADMAP "Adaptive DetectInterval").
// parties is the count of balanced entities: workers under RIPS,
// domains under Hybrid.
func (d *detector) update(moved, parties int) {
	d.drained.Store(0)
	d.ewma = adaptEwmaOld*d.ewma + (1-adaptEwmaOld)*float64(moved)
	if d.cfg.DetectInterval != 0 {
		return // constant override or disabled: nothing to adapt
	}
	f := float64(parties) / (d.ewma + 1)
	if f < 1 {
		f = 1
	}
	if f > adaptMaxFactor {
		f = adaptMaxFactor
	}
	d.wait = time.Duration(f * float64(DefaultDetectInterval))
}
