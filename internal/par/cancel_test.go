package par

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// bigQueens returns a workload a progress-triggered cancel cannot miss:
// 15-Queens at split depth 4 is ~16 000 tasks and most of a second on
// two cores, and cancelAfter fires a few dozen tasks in.
func bigQueens() *nqueens.App { return nqueens.New(15, 4) }

// cancelAfter wraps an app so that the run cancels itself from its own
// progress: executing task number cancelAtTask closes ch. The run is
// mid-flight at that instant by construction, on any machine and at
// any speed — a wall-clock timer instead races the job to its end.
type cancelAfter struct {
	app.Counted
	executed atomic.Int64
	ch       chan struct{}
	closedAt time.Time // written before close(ch), read after Run returns
}

const cancelAtTask = 64

func newCancelAfter(a app.Counted) *cancelAfter {
	return &cancelAfter{Counted: a, ch: make(chan struct{})}
}

func (c *cancelAfter) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	if c.executed.Add(1) == cancelAtTask {
		c.closedAt = time.Now()
		close(c.ch)
	}
	return c.Counted.ExecuteCount(data, emit)
}

// runCanceled runs cfg (whose App must be Counted) with a cancel fired
// by task number cancelAtTask and checks the common abort contract:
// ErrCanceled, Canceled set, partial progress, prompt unwinding.
func runCanceled(t *testing.T, cfg Config) Result {
	t.Helper()
	ca := newCancelAfter(cfg.App.(app.Counted))
	cfg.App, cfg.Cancel = ca, ca.ch
	res, err := Run(cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run(%s) after cancel: err = %v, want ErrCanceled", cfg.Strategy, err)
	}
	elapsed := time.Since(ca.closedAt)
	if !res.Canceled {
		t.Errorf("%s: Result.Canceled = false on a canceled run", cfg.Strategy)
	}
	if res.Executed < cancelAtTask || res.Executed > res.Generated {
		t.Errorf("%s: executed %d of %d generated, want at least the %d that fired the cancel",
			cfg.Strategy, res.Executed, res.Generated, cancelAtTask)
	}
	// The abort must not wedge the barrier: the whole run — including
	// the post-cancel phase drain — has to finish promptly. One second
	// is orders of magnitude above one DetectInterval (100µs) yet
	// below the full workload's runtime.
	if elapsed > time.Second {
		t.Errorf("%s: canceled run took %v to unwind", cfg.Strategy, elapsed)
	}
	return res
}

// TestCancelRIPS aborts a mid-flight RIPS run on every policy pair and
// checks the workers unwind through the epoch barrier promptly.
func TestCancelRIPS(t *testing.T) {
	for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
		for _, global := range []ripsrt.GlobalPolicy{ripsrt.Any, ripsrt.All} {
			runCanceled(t, Config{
				Topo:   topo.NewMesh(2, 2),
				App:    bigQueens(),
				Local:  local,
				Global: global,
			})
		}
	}
}

// TestCancelSteal aborts a work-stealing run: the deques may hold
// abandoned tasks, and the round barrier must skip its emptiness
// invariant rather than fire it.
func TestCancelSteal(t *testing.T) {
	runCanceled(t, Config{
		Topo:     topo.NewMesh(2, 2),
		App:      bigQueens(),
		Strategy: Steal,
	})
}

// TestCancelBeforeStart closes the channel before Run: the run must
// stop at its first phase boundary with (almost) nothing executed.
func TestCancelBeforeStart(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	res, err := Run(Config{
		Topo:   topo.NewMesh(2, 2),
		App:    bigQueens(),
		Cancel: cancel,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false")
	}
}

// TestCancelUnusedCompletes checks a run that finishes before anyone
// cancels is entirely unaffected by having a Cancel channel armed.
func TestCancelUnusedCompletes(t *testing.T) {
	cancel := make(chan struct{})
	defer close(cancel)
	res, err := Run(Config{
		Topo:   topo.NewMesh(2, 2),
		App:    nqueens.New(8, 3),
		Cancel: cancel,
	})
	if err != nil {
		t.Fatalf("Run with armed cancel: %v", err)
	}
	if res.Canceled {
		t.Error("Result.Canceled = true on a completed run")
	}
	if res.AppResult != 92 {
		t.Errorf("AppResult = %d, want 92", res.AppResult)
	}
}
