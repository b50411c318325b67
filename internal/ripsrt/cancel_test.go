package ripsrt

import (
	"errors"
	"testing"

	"rips/internal/apps/nqueens"
	"rips/internal/metrics"
	"rips/internal/sim"
	"rips/internal/topo"
)

// TestCancelReturnsPartialResult aborts a simulated run before it
// starts and checks the partial-result contract: sim.ErrCanceled,
// Canceled set, and no conservation error despite Executed falling
// short of Generated.
func TestCancelReturnsPartialResult(t *testing.T) {
	cancel := make(chan struct{})
	close(cancel)
	res, err := Run(Config{
		Topo:   topo.NewMesh(2, 2),
		App:    nqueens.New(10, 3),
		Cancel: cancel,
	})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false on a canceled run")
	}
	if res.Executed > res.Generated {
		t.Errorf("executed %d > generated %d", res.Executed, res.Generated)
	}
}

// TestCancelUnusedCompletes checks an armed-but-unfired Cancel channel
// changes nothing about a completed run.
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
		t.Errorf("AppResult = %d, want 92 solutions", res.AppResult)
	}
}

// TestOnPhaseStreamsEveryPhase checks the OnPhase hook fires once per
// system phase, in order, with virtual time monotonically advancing and
// the task totals matching the recorded trace.
func TestOnPhaseStreamsEveryPhase(t *testing.T) {
	var seen []metrics.PhaseInfo
	res, err := Run(Config{
		Topo: topo.NewMesh(2, 2),
		App:  nqueens.New(8, 3),
		OnPhase: func(pi metrics.PhaseInfo) {
			seen = append(seen, pi)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seen)) != res.Phases {
		t.Fatalf("OnPhase fired %d times for %d phases", len(seen), res.Phases)
	}
	var last sim.Time
	for i, pi := range seen {
		if pi.Phase != int64(i+1) {
			t.Errorf("phase %d reported index %d", i+1, pi.Phase)
		}
		if pi.Tasks != res.PhaseTotals[i] {
			t.Errorf("phase %d reported %d tasks, trace says %d", i+1, pi.Tasks, res.PhaseTotals[i])
		}
		if pi.VirtualTime < last {
			t.Errorf("phase %d virtual time %v went backwards from %v", i+1, pi.VirtualTime, last)
		}
		last = pi.VirtualTime
		if pi.Elapsed != 0 {
			t.Errorf("phase %d reported wall Elapsed %v on the simulate backend", i+1, pi.Elapsed)
		}
	}
}
