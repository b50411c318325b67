package par

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rips/internal/topo"
)

// TestPoolMatchesRun checks a pool run returns the exact answer and
// task accounting a fresh-goroutine run does, for both strategies and
// for topologies smaller than the pool (surplus workers idle).
func TestPoolMatchesRun(t *testing.T) {
	pool, err := NewPool(8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rips-2x2", Config{Topo: topo.NewMesh(2, 2), App: queens8()}},
		{"rips-2x4", Config{Topo: topo.NewMesh(2, 4), App: queens8()}},
		{"steal-2x2", Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Steal}},
		{"rips-tree", Config{Topo: topo.NewTree(3), App: queens8()}},
	} {
		direct := mustRun(t, tc.cfg)
		pooled, err := pool.Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: pool.Run: %v", tc.name, err)
		}
		if pooled.AppResult != direct.AppResult {
			t.Errorf("%s: pool AppResult %d, direct %d", tc.name, pooled.AppResult, direct.AppResult)
		}
		if pooled.Generated != direct.Generated || pooled.Executed != direct.Executed {
			t.Errorf("%s: pool generated/executed %d/%d, direct %d/%d",
				tc.name, pooled.Generated, pooled.Executed, direct.Generated, direct.Executed)
		}
		if pooled.VirtualWork != direct.VirtualWork {
			t.Errorf("%s: pool VirtualWork %v, direct %v", tc.name, pooled.VirtualWork, direct.VirtualWork)
		}
		if pooled.Workers != tc.cfg.Topo.Size() {
			t.Errorf("%s: pool result Workers %d, want topology size %d",
				tc.name, pooled.Workers, tc.cfg.Topo.Size())
		}
	}
}

// TestPoolSequentialRuns reuses one pool for many back-to-back runs —
// the serving pattern — and checks every answer.
func TestPoolSequentialRuns(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 5; i++ {
		res, err := pool.Run(Config{Topo: topo.NewMesh(2, 2), App: queens8()})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		checkQueens8(t, res, "pool run")
	}
}

// TestPoolConcurrentCallers fires many goroutines at one pool at once;
// Run serializes them, and every caller still gets the right answer.
func TestPoolConcurrentCallers(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pool.Run(Config{Topo: topo.NewMesh(2, 2), App: queens8()})
			if err != nil {
				t.Errorf("pool.Run: %v", err)
				return
			}
			if res.AppResult != 92 {
				t.Errorf("AppResult = %d, want 92", res.AppResult)
			}
		}()
	}
	wg.Wait()
}

// TestPoolTooSmall checks the descriptive error when a topology does
// not fit the pool.
func TestPoolTooSmall(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	_, err = pool.Run(Config{Topo: topo.NewMesh(2, 2), App: queens8()})
	if err == nil || !strings.Contains(err.Error(), "needs 4 workers but the pool has 2") {
		t.Fatalf("err = %v, want worker-count mismatch", err)
	}
}

// TestPoolClosed checks Run after Close fails cleanly and double Close
// is a no-op.
func TestPoolClosed(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close()
	_, err = pool.Run(Config{Topo: topo.NewMesh(1, 2), App: queens8()})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v, want pool-closed error", err)
	}
}

// TestPoolCancelFreesWorkers cancels a long run on the pool and checks
// the pool is immediately usable for the next run — the "canceled job
// frees pool capacity" property the server relies on.
func TestPoolCancelFreesWorkers(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	long := newCancelAfter(bigQueens())
	res, err := pool.Run(Config{Topo: topo.NewMesh(2, 2), App: long, Cancel: long.ch})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled pool run: err = %v, want ErrCanceled", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false")
	}

	next, err := pool.Run(Config{Topo: topo.NewMesh(2, 2), App: queens8()})
	if err != nil {
		t.Fatalf("run after canceled run: %v", err)
	}
	checkQueens8(t, next, "run after cancel")
}

// TestNewPoolRejectsZeroWorkers covers the constructor's validation.
func TestNewPoolRejectsZeroWorkers(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Fatal("NewPool(0) succeeded")
	}
}

// TestSubPoolMatchesRun leases sub-pools out of one root and checks a
// sub-pool run returns the exact answer a fresh-goroutine run does —
// including on a lease whose worker indices don't start at zero.
func TestSubPoolMatchesRun(t *testing.T) {
	pool, err := NewPool(8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	first, err := pool.Split(4) // takes workers 0-3
	if err != nil {
		t.Fatal(err)
	}
	second, err := pool.Split(4) // takes workers 4-7: offset ranks
	if err != nil {
		t.Fatal(err)
	}
	defer first.Release()
	defer second.Release()

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"rips-2x2", Config{Topo: topo.NewMesh(2, 2), App: queens8()}},
		{"rips-1x2", Config{Topo: topo.NewMesh(1, 2), App: queens8()}},
		{"steal-2x2", Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: Steal}},
		{"rips-tree", Config{Topo: topo.NewTree(3), App: queens8()}},
	} {
		direct := mustRun(t, tc.cfg)
		for name, sub := range map[string]*Pool{"first": first, "second": second} {
			got, err := sub.Run(tc.cfg)
			if err != nil {
				t.Fatalf("%s on %s lease: %v", tc.name, name, err)
			}
			if got.AppResult != direct.AppResult || got.Generated != direct.Generated ||
				got.Executed != direct.Executed || got.VirtualWork != direct.VirtualWork {
				t.Errorf("%s on %s lease: AppResult/Generated/Executed/VirtualWork = %d/%d/%d/%v, direct %d/%d/%d/%v",
					tc.name, name, got.AppResult, got.Generated, got.Executed, got.VirtualWork,
					direct.AppResult, direct.Generated, direct.Executed, direct.VirtualWork)
			}
		}
	}
}

// TestSubPoolsDispatchConcurrently proves two leases really run at the
// same time: the two dispatched bodies rendezvous with each other, so
// the test completes only if neither lease waits for the other to
// finish.
func TestSubPoolsDispatchConcurrently(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()

	gateA, gateB := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.dispatch(2, func(id int) {
				if id == 0 {
					close(gateA)
					<-gateB
				}
			})
		}()
		go func() {
			defer wg.Done()
			b.dispatch(2, func(id int) {
				if id == 0 {
					close(gateB)
					<-gateA
				}
			})
		}()
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cross-lease rendezvous never completed: sub-pool runs are serialized")
	}
}

// TestSubPoolConcurrentAnswers runs real workloads on two leases at
// once and checks both answers — the multi-tenant serving pattern.
func TestSubPoolConcurrentAnswers(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Release()
	defer b.Release()

	var wg sync.WaitGroup
	for _, sub := range []*Pool{a, b} {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(sub *Pool) {
				defer wg.Done()
				res, err := sub.Run(Config{Topo: topo.NewMesh(1, 2), App: queens8()})
				if err != nil {
					t.Errorf("sub.Run: %v", err)
					return
				}
				if res.AppResult != 92 {
					t.Errorf("AppResult = %d, want 92", res.AppResult)
				}
			}(sub)
		}
	}
	wg.Wait()
}

// TestSplitCapacity covers the lease ledger: capacity errors, Free
// accounting, Release restoring capacity, and lease lifecycle errors.
func TestSplitCapacity(t *testing.T) {
	pool, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if got := pool.Free(); got != 4 {
		t.Fatalf("fresh pool Free() = %d, want 4", got)
	}
	sub, err := pool.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Free(); got != 1 {
		t.Errorf("Free() after Split(3) = %d, want 1", got)
	}
	if got := sub.Workers(); got != 3 {
		t.Errorf("sub.Workers() = %d, want 3", got)
	}
	if _, err := pool.Split(2); err == nil || !strings.Contains(err.Error(), "free") {
		t.Errorf("oversubscribed Split err = %v, want free-capacity error", err)
	}
	if _, err := sub.Split(1); err == nil || !strings.Contains(err.Error(), "sub-pool") {
		t.Errorf("Split on a sub-pool err = %v, want refusal", err)
	}

	// A run larger than the lease is refused even though the root could
	// hold it.
	if _, err := sub.Run(Config{Topo: topo.NewMesh(2, 2), App: queens8()}); err == nil ||
		!strings.Contains(err.Error(), "sub-pool has 3") {
		t.Errorf("oversized lease run err = %v, want sub-pool capacity error", err)
	}

	sub.Release()
	sub.Release() // idempotent
	if got := pool.Free(); got != 4 {
		t.Errorf("Free() after Release = %d, want 4", got)
	}
	if _, err := sub.Run(Config{Topo: topo.NewMesh(1, 2), App: queens8()}); err == nil ||
		!strings.Contains(err.Error(), "released") {
		t.Errorf("run on released lease err = %v, want released error", err)
	}
}

// TestRootRunWaitsForLeases checks a root Run needs the whole machine:
// it blocks while a lease is out and proceeds once released.
func TestRootRunWaitsForLeases(t *testing.T) {
	pool, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sub, err := pool.Split(1)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	finished := make(chan Result, 1)
	go func() {
		close(started)
		res, err := pool.Run(Config{Topo: topo.NewMesh(1, 2), App: queens8()})
		if err != nil {
			t.Errorf("root run after release: %v", err)
		}
		finished <- res
	}()
	<-started
	select {
	case <-finished:
		t.Fatal("root Run completed while a lease was outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	sub.Release()
	select {
	case res := <-finished:
		checkQueens8(t, res, "root run after release")
	case <-time.After(30 * time.Second):
		t.Fatal("root Run never proceeded after the lease was released")
	}
}
