package ripsrt

import (
	"strings"
	"testing"

	"rips/internal/invariant"
	"rips/internal/topo"
)

// These tests pin the invariant wiring inside the runtime: the checks
// must be live while the ripsrt suite runs (so the conservation and
// Theorem 1 assertions in the mesh/tree/cube system phases execute on
// every test in this package), and a violated invariant must surface
// as a typed *invariant.Violation.

// catchViolation runs f and returns the *invariant.Violation it
// panics with, failing the test if it returns normally or panics with
// anything else.
func catchViolation(t *testing.T, f func()) (v *invariant.Violation) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected an invariant violation, got none")
		}
		var ok bool
		if v, ok = r.(*invariant.Violation); !ok {
			t.Fatalf("panic value %T, want *invariant.Violation", r)
		}
	}()
	f()
	return nil
}

func TestInvariantsLiveDuringTests(t *testing.T) {
	if !invariant.Enabled() {
		t.Fatal("invariant checks are disabled while the ripsrt suite runs; unset RIPS_INVARIANTS and drop -tags noinvariants")
	}
}

func TestUnsupportedTopologyViolation(t *testing.T) {
	v := catchViolation(t, func() {
		newPhaseScheduler(topo.NewRing(4), 0, false)
	})
	if !strings.Contains(v.Msg, "no system-phase scheduler") {
		t.Errorf("violation = %q, want mention of missing system-phase scheduler", v.Msg)
	}
}

func TestTakeTasksNegativeViolation(t *testing.T) {
	st := &nodeState{}
	v := catchViolation(t, func() {
		st.takeTasks(-1)
	})
	if !strings.Contains(v.Msg, "takeTasks(-1)") {
		t.Errorf("violation = %q, want the rejected count", v.Msg)
	}
}

// TestRunWithInvariantsForcedOn re-runs a standard mesh workload with
// the checks explicitly enabled: every system phase passes through
// Conserved, BalancedWithinOne (Theorem 1) and Locality (Theorem 2)
// without firing.
func TestRunWithInvariantsForcedOn(t *testing.T) {
	restore := invariant.SetEnabled(true)
	defer restore()

	cfg := Config{
		Topo:   topo.NewMesh(4, 4),
		App:    chaosApp{seed: 11, maxDepth: 4, roots: 4},
		Local:  Eager,
		Global: All,
		Seed:   7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != res.Generated {
		t.Errorf("executed %d of %d generated tasks", res.Executed, res.Generated)
	}
}
