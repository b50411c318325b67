package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/topo"
)

// detectorGuard bounds every wait in this file. The detector interval
// under test is an hour, so anything that returns inside the guard did
// not sit the interval out.
const detectorGuard = 10 * time.Second

// within fails the test unless done closes inside the guard.
func within(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(detectorGuard):
		t.Fatalf("%s: still waiting after %v", what, detectorGuard)
	}
}

// spinUntil yields until cond holds (the test's side of a handshake
// with a goroutine inside detector.await).
func spinUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(detectorGuard); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after %v", what, detectorGuard)
		}
	}
}

// TestDetectorAllDrained runs whole jobs with an hour-long detector
// interval: no drained worker ever sees it expire, so every request —
// each of IDA*'s round boundaries, and the end of every run — has to
// come from the worker that completes the drained count. Before the
// count existed these runs sat out the hour.
func TestDetectorAllDrained(t *testing.T) {
	ida := puzzle.Configs()[0] // 9 rounds
	cases := []struct {
		name string
		cfg  Config
	}{
		{"rips-2-ida", Config{Topo: topo.NewMesh(1, 2), App: ida}},
		{"hybrid-2x1-ida", Config{Topo: topo.NewMesh(1, 2), App: ida, Strategy: Hybrid, Domains: 2}},
		{"hybrid-1x2-ida", Config{Topo: topo.NewMesh(1, 2), App: ida, Strategy: Hybrid, Domains: 1}},
		{"rips-1-nq10", Config{Topo: topo.NewMesh(1, 1), App: nqueens.New(10, 4)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := measure(t, c.cfg.App)
			c.cfg.DetectInterval = time.Hour
			var res Result
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				res, err = Run(c.cfg)
			}()
			within(t, done, "run with an hour-long detector interval")
			if err != nil {
				t.Fatal(err)
			}
			checkPar(t, c.name, res, want)
			if rounds := int64(c.cfg.App.Rounds()); res.Phases < rounds {
				t.Errorf("%d phases for %d rounds", res.Phases, rounds)
			}
		})
	}
}

// awaitInBackground parks worker 0 of a fresh n-worker detector (hour
// interval) in await and returns once it is counted as drained.
func awaitInBackground(t *testing.T, n int, cancel *atomic.Bool) (d *detector, returned chan struct{}) {
	t.Helper()
	d = newDetector(&Config{DetectInterval: time.Hour}, n, cancel)
	returned = make(chan struct{})
	go func() {
		defer close(returned)
		d.await(0, 0, nil)
	}()
	spinUntil(t, func() bool { return d.drained.Load() == 1 }, "worker 0 counted as drained")
	return d, returned
}

// TestDetectorWakes checks each thing that ends a wait before its
// interval: the request appearing, the last worker draining, and the
// abort flag.
func TestDetectorWakes(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		var cancel atomic.Bool
		d, returned := awaitInBackground(t, 3, &cancel)
		d.req.Store(0) // what an initiator whose interval ran out publishes
		within(t, returned, "waiter after the request was published")
		if got := d.drained.Load(); got != 1 {
			t.Errorf("drained = %d after the wait, want the waiter still counted", got)
		}
	})
	t.Run("all-drained", func(t *testing.T) {
		var cancel atomic.Bool
		d, returned := awaitInBackground(t, 2, &cancel)
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.await(1, 0, nil)
		}()
		within(t, done, "the worker completing the drained count")
		within(t, returned, "waiter after every worker drained")
		if !d.requested(0) {
			t.Error("all workers drained but phase 0 was not requested")
		}
	})
	t.Run("cancel", func(t *testing.T) {
		var cancel atomic.Bool
		d, returned := awaitInBackground(t, 2, &cancel)
		cancel.Store(true)
		within(t, returned, "waiter after the abort flag was set")
		if d.requested(0) {
			t.Error("a canceled waiter requested a transfer nobody will serve")
		}
	})
}

// TestDetectorStealLeavesDrained parks a Hybrid worker in the detector
// and then makes work stealable in its domain: the waiter must come
// back with the task, uncounted, and without requesting a phase.
func TestDetectorStealLeavesDrained(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: queens8(), Strategy: Hybrid, Domains: 1, DetectInterval: time.Hour}
	r := newEngineRun(&cfg)
	thief, victim := r.workers[0], r.workers[1]
	var got *node
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		got = r.det.await(thief.id, 0, thief.sweep)
	}()
	spinUntil(t, func() bool { return r.det.drained.Load() == 1 }, "thief counted as drained")
	want := &node{id: 42, origin: victim.id}
	victim.d.push(want) // this goroutine stands in for the deque's owner
	within(t, returned, "waiter after work became stealable")
	if got != want {
		t.Fatalf("await returned %v, want the stolen task", got)
	}
	if n := r.det.drained.Load(); n != 0 {
		t.Errorf("drained = %d after the steal, want 0", n)
	}
	if r.det.requested(0) {
		t.Error("a worker that found work requested the phase")
	}
}

// TestHybridDrainedCountBounded runs whole Hybrid jobs — stealing
// inside domains, an hour-long interval so the count alone opens the
// phases — and checks the count at every barrier snapshot, with the
// world stopped: a worker counted as drained pushed nothing since, so
// the count can never exceed the number of empty deques. A worker that
// stole during its wait and stayed counted breaks that as soon as the
// stolen task has children.
func TestHybridDrainedCountBounded(t *testing.T) {
	for _, domains := range []int{1, 2} {
		cfg := Config{Topo: topo.NewMesh(2, 2), App: nqueens.New(12, 4), Strategy: Hybrid, Domains: domains, DetectInterval: time.Hour}
		r := newEngineRun(&cfg)
		over := 0
		r.beginFn = func() {
			empty := 0
			for _, w := range r.workers {
				if w.d.size() == 0 {
					empty++
				}
			}
			if int(r.det.drained.Load()) > empty {
				over++
			}
			r.beginPhase()
		}
		r.loadRoots(0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			goDriver{}.dispatch(r.n, r.workerMain)
		}()
		within(t, done, "hybrid run")
		if r.err != nil {
			t.Fatal(r.err)
		}
		var result int64
		for _, w := range r.workers {
			result += w.appResult
		}
		if result != 14200 {
			t.Errorf("domains=%d: %d solutions, want 14200", domains, result)
		}
		if over != 0 {
			t.Errorf("domains=%d: %d of %d snapshots counted more drained workers than empty deques", domains, over, r.phases)
		}
	}
}
