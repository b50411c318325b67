package rips

import (
	"fmt"

	"rips/internal/par"
)

// Pool is a set of resident worker goroutines that successive
// Parallel-backend runs multiplex onto via Config.Pool — the serving
// configuration, where one machine's cores are shared by many
// submissions instead of each run spawning its own workers.
//
// A root pool (from NewPool) executes one run at a time; concurrent
// runs serialize in submission order, and a queued run's context is
// still honored the moment it starts. Split leases disjoint subsets of
// the root's workers out as sub-pools; runs on distinct sub-pools
// execute concurrently, which is how the multi-tenant ripsd frontend
// (internal/serve + internal/tenant) runs several small jobs on one
// machine at once. Release returns a lease.
//
// The Simulate backend ignores Config.Pool: simulated nodes are
// goroutines of the virtual-time engine, not pool workers.
type Pool struct {
	p *par.Pool
}

// Typed pool errors, matchable with errors.Is. They let an admission
// layer (or a test) branch on why a lease was refused without parsing
// message text: capacity refusals queue or preempt, lifecycle refusals
// fail the request.
var (
	// ErrPoolClosed reports an operation on a root pool after Close.
	ErrPoolClosed = par.ErrPoolClosed
	// ErrLeaseReleased reports an operation on a sub-pool after Release.
	ErrLeaseReleased = par.ErrLeaseReleased
	// ErrInsufficientWorkers reports a Split asking for more workers
	// than the root pool's free set holds; no lease changes and nothing
	// blocks.
	ErrInsufficientWorkers = par.ErrInsufficientWorkers
	// ErrBadLeaseSize reports a Split asking for fewer than one worker.
	ErrBadLeaseSize = par.ErrBadLeaseSize
)

// NewPool starts a pool of the given size. Every Parallel run on the
// pool must fit it: Config.Validate rejects machines larger than the
// pool. The pool is a single affinity domain; see NewPoolDomains.
func NewPool(workers int) (*Pool, error) {
	p, err := par.NewPool(workers)
	if err != nil {
		return nil, err
	}
	return &Pool{p: p}, nil
}

// NewPoolDomains starts a pool whose workers are partitioned into the
// given number of contiguous affinity domains (zero auto-detects the
// machine's, any count is clamped into [1, workers]) and whose leases
// respect the partition: Split places each lease inside the fewest
// domains the free set allows, preferring the tightest single domain
// that fits. Jobs small enough for one domain then share that domain's
// cache hierarchy — the serving-side counterpart of the Hybrid
// backend's intra-domain stealing.
func NewPoolDomains(workers, domains int) (*Pool, error) {
	if domains < 0 {
		return nil, fmt.Errorf("rips: NewPoolDomains(%d, %d): domain count must be non-negative", workers, domains)
	}
	p, err := par.NewPoolDomains(workers, domains)
	if err != nil {
		return nil, err
	}
	return &Pool{p: p}, nil
}

// Domains returns the pool's affinity-domain count (1 unless built
// with NewPoolDomains). A sub-pool reports its root's partition.
func (p *Pool) Domains() int { return p.p.Domains() }

// Workers returns the pool's worker count: the resident total on a
// root pool, the lease size on a sub-pool.
func (p *Pool) Workers() int { return p.p.Workers() }

// Free returns how many of a root pool's workers are currently
// leasable — neither leased to a sub-pool nor occupied by a run. A
// sub-pool cannot lease and always reports 0.
func (p *Pool) Free() int { return p.p.Free() }

// Split leases n workers out of the root pool's free set as a
// sub-pool usable anywhere a *Pool is (Config.Pool). It never blocks:
// if fewer than n workers are free the lease is refused, so an
// admission scheduler can decide to queue or preempt instead of
// deadlocking on capacity.
func (p *Pool) Split(n int) (*Pool, error) {
	sub, err := p.p.Split(n)
	if err != nil {
		return nil, err
	}
	return &Pool{p: sub}, nil
}

// Release returns a sub-pool's workers to the root's free set and
// marks the lease unusable, waiting for any run in flight on it.
// Idempotent; on a root pool Release is Close.
func (p *Pool) Release() { p.p.Release() }

// Close shuts the resident workers down, blocking until every lease is
// released and any run in flight completes. Runs submitted after Close
// fail.
func (p *Pool) Close() { p.p.Close() }
