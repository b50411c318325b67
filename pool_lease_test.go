package rips_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"rips"
)

// TestPoolDomains covers the public domain-partitioned pool: the
// resolved partition is visible through Domains (clamped into
// [1, workers], inherited by sub-pools), a negative count is rejected,
// and a Hybrid run on a domain-placed lease returns the exact answer a
// pool-less run does.
func TestPoolDomains(t *testing.T) {
	if _, err := rips.NewPoolDomains(4, -1); err == nil {
		t.Fatal("NewPoolDomains(4, -1) succeeded, want error")
	}
	pool, err := rips.NewPoolDomains(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Domains() != 2 {
		t.Fatalf("Domains() = %d, want 2", pool.Domains())
	}
	sub, err := pool.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Release()
	if sub.Domains() != 2 {
		t.Fatalf("sub-pool Domains() = %d, want the root's 2", sub.Domains())
	}

	cfg := rips.Config{Procs: 4, Backend: rips.Hybrid, Domains: 2, Pool: sub}
	a := rips.NQueens(8)
	got, err := rips.RunContext(t.Context(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.Pool = nil
	want, err := rips.RunContext(t.Context(), a, bare)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppResult != want.AppResult || got.Tasks != want.Tasks || got.Domains != 2 {
		t.Fatalf("leased hybrid run = result %d tasks %d domains %d; pool-less run = %d/%d",
			got.AppResult, got.Tasks, got.Domains, want.AppResult, want.Tasks)
	}
}

// TestPoolLeaseEdgeCases pins the sub-pool leasing contract at its
// boundaries through the public API: a zero- or negative-size Split is
// ErrBadLeaseSize, an over-capacity Split is ErrInsufficientWorkers
// and leaves every lease unchanged, a released lease refuses a run,
// double Release is a no-op, and a closed root refuses Split with
// ErrPoolClosed. Each Split refusal is checked with errors.Is — the
// errors are typed API, not message text.
func TestPoolLeaseEdgeCases(t *testing.T) {
	pool, err := rips.NewPool(4)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{0, -1} {
		if _, err := pool.Split(n); !errors.Is(err, rips.ErrBadLeaseSize) {
			t.Errorf("Split(%d) = %v, want ErrBadLeaseSize", n, err)
		}
	}
	if free := pool.Free(); free != 4 {
		t.Fatalf("free = %d after refused splits, want 4", free)
	}

	// Over-capacity Split refuses immediately (leasing never blocks).
	if _, err := pool.Split(5); !errors.Is(err, rips.ErrInsufficientWorkers) {
		t.Errorf("Split(5) on a 4-pool = %v, want ErrInsufficientWorkers", err)
	}

	sub, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Workers(); got != 2 {
		t.Fatalf("sub.Workers() = %d, want 2", got)
	}
	if free := pool.Free(); free != 2 {
		t.Fatalf("free = %d with a 2-lease out, want 2", free)
	}

	// A second lease beyond the free set: refused, first lease unchanged.
	if _, err := pool.Split(3); !errors.Is(err, rips.ErrInsufficientWorkers) {
		t.Errorf("Split(3) with 2 free = %v, want ErrInsufficientWorkers", err)
	}
	if got := sub.Workers(); got != 2 {
		t.Errorf("lease changed shape after a refused Split: %d workers, want 2", got)
	}

	// A lease of exactly the free set succeeds and empties it.
	rest, err := pool.Split(2)
	if err != nil {
		t.Fatalf("Split(2) of the remaining free set: %v", err)
	}
	if free := pool.Free(); free != 0 {
		t.Errorf("free = %d with the whole pool leased, want 0", free)
	}
	rest.Release()
	if free := pool.Free(); free != 2 {
		t.Errorf("free = %d after releasing the second lease, want 2", free)
	}

	// Double Release: idempotent; the workers come back exactly once.
	sub.Release()
	if free := pool.Free(); free != 4 {
		t.Fatalf("free = %d after Release, want 4", free)
	}
	sub.Release()
	if free := pool.Free(); free != 4 {
		t.Fatalf("free = %d after double Release, want 4 (workers returned twice?)", free)
	}
	if _, err := rips.RunContext(t.Context(), rips.NQueens(6), rips.Config{Procs: 2, Backend: rips.Parallel, Pool: sub}); err == nil {
		t.Error("run on a released lease succeeded, want a refusal")
	}

	pool.Close()
	if _, err := pool.Split(1); !errors.Is(err, rips.ErrPoolClosed) {
		t.Errorf("Split on a closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestPoolLeaseConcurrent hammers Split/Release from many
// goroutines and checks the capacity invariant the arbiter depends on:
// leased + free == workers at every quiescent point, no lease is ever
// granted beyond capacity, and after every lease is released the full
// pool is free again. Run under -race this also exercises the lock
// protocol of the lease ledger.
func TestPoolLeaseConcurrent(t *testing.T) {
	const workers = 8
	pool, err := rips.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var mu sync.Mutex
	leased := 0 // tracked under mu from the goroutines' own accounting

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(3)
				sub, err := pool.Split(n)
				if err != nil {
					if !errors.Is(err, rips.ErrInsufficientWorkers) {
						t.Errorf("Split(%d): %v", n, err)
					}
					continue
				}
				mu.Lock()
				leased += n
				if leased > workers {
					t.Errorf("leases total %d workers, capacity is %d", leased, workers)
				}
				mu.Unlock()

				sub.Release()
				if rng.Intn(4) == 0 {
					sub.Release() // double release must stay a no-op under contention
				}
				mu.Lock()
				leased -= n
				mu.Unlock()
			}
		}(int64(g))
	}
	wg.Wait()

	if leased != 0 {
		t.Fatalf("accounting leak: %d workers still recorded as leased", leased)
	}
	if free := pool.Free(); free != workers {
		t.Fatalf("free = %d after all leases released, want %d", free, workers)
	}
	// The pool still works after the churn.
	sub, err := pool.Split(workers)
	if err != nil {
		t.Fatalf("Split(%d) after churn: %v", workers, err)
	}
	sub.Release()
}
