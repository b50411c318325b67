package par

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Typed pool errors. Callers that branch on why a lease or run was
// refused — the admission arbiter deciding between queueing and
// preemption, tests pinning the contract — match with errors.Is; the
// wrapped messages keep the human-readable detail (sizes, counts).
var (
	// ErrPoolClosed reports an operation on a root pool after Close.
	ErrPoolClosed = errors.New("par: pool is closed")
	// ErrLeaseReleased reports an operation on a sub-pool after Release.
	ErrLeaseReleased = errors.New("par: sub-pool is released")
	// ErrInsufficientWorkers reports a Split asking for more workers
	// than the root's free set holds. The refusal is immediate —
	// leasing never blocks on capacity — and leaves every lease
	// unchanged.
	ErrInsufficientWorkers = errors.New("par: insufficient free workers")
	// ErrBadLeaseSize reports a Split asking for fewer than one worker.
	ErrBadLeaseSize = errors.New("par: sub-pool needs at least one worker")
)

// driver abstracts how a run's worker bodies get onto goroutines: the
// default goDriver spawns fresh goroutines per run (the original
// behavior), while a Pool dispatches onto resident workers so a
// long-lived server pays goroutine startup once, not per submission.
// dispatch runs main(0..parties-1) concurrently and returns when every
// body has returned.
type driver interface {
	dispatch(parties int, main func(id int))
}

// goDriver runs each worker body on a fresh goroutine.
type goDriver struct{}

func (goDriver) dispatch(parties int, main func(id int)) {
	var wg sync.WaitGroup
	for i := 0; i < parties; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			main(id)
		}(i)
	}
	wg.Wait()
}

// poolJob is one run handed to a resident worker. rank is the worker's
// role in this particular run — workers whose rank is beyond the run's
// party count sit the run out but still join done, so the dispatcher's
// wait is uniform over every worker it signalled. Ranks are assigned
// per dispatch, which is what lets a sub-pool of arbitrary worker
// indices play nodes 0..parties-1 of a virtual machine.
type poolJob struct {
	rank    int
	parties int
	main    func(id int)
	done    *sync.WaitGroup
}

// Pool is a set of resident worker goroutines that successive runs are
// multiplexed onto — the serving backend's substrate. A root Pool
// (from NewPool) owns the worker goroutines; Split leases disjoint
// subsets of them out as sub-pools, and runs on distinct sub-pools
// execute concurrently — the multi-tenant serving configuration, where
// one machine's cores are carved up among simultaneous jobs. Release
// returns the lease.
//
// Run on the root pool acquires every worker — waiting for outstanding
// leases and runs to finish — so the historical one-run-at-a-time
// semantics are unchanged for callers that never Split. Run on a
// sub-pool uses only its leased workers; concurrent runs on one
// sub-pool serialize.
//
// The zero Pool is not usable; construct with NewPool and shut down
// with Close.
type Pool struct {
	root *Pool // nil on a root pool
	ids  []int // worker indices this pool dispatches to (root: all)

	// Root-only: the resident worker goroutines.
	work []chan poolJob
	wg   sync.WaitGroup

	// Root-only: the affinity partition (NewPoolDomains). domOf maps a
	// worker index to its domain; nd is the domain count. A plain
	// NewPool pool is one domain, which makes the domain-aware lease
	// placement degenerate to the historical lowest-numbered order.
	domOf []int
	nd    int

	// Root: guards free and closed; cond signals workers returning to
	// the free set. Sub-pool: serializes Run and Release, so a lease
	// cannot be returned mid-run.
	mu     sync.Mutex
	cond   *sync.Cond
	free   []int // root only: worker indices not leased and not running
	closed bool  // root: Close called; sub: Release called
}

// NewPool starts workers resident goroutines and returns the root
// pool. The pool is a single affinity domain; use NewPoolDomains to
// make leases respect a domain partition.
func NewPool(workers int) (*Pool, error) {
	return NewPoolDomains(workers, 1)
}

// NewPoolDomains starts a root pool whose workers are partitioned into
// domains contiguous affinity domains (zero auto-detects the machine's,
// any count is clamped into [1, workers]), and whose leases respect the
// partition: Split places a lease inside the fewest domains the free
// set allows, preferring the tightest single domain that fits. A lease
// that fits one domain shares that domain's cache hierarchy, which is
// what makes a sub-pool a sensible substrate for a Hybrid run's
// intra-domain stealing.
func NewPoolDomains(workers, domains int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("par: pool needs at least one worker, got %d", workers)
	}
	nd := resolveDomains(domains, workers, false)
	p := &Pool{
		ids:   make([]int, workers),
		work:  make([]chan poolJob, workers),
		free:  make([]int, workers),
		domOf: workerDomains(domainBlocks(workers, nd), workers),
		nd:    nd,
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.ids[i] = i
		p.free[i] = i
		// Buffer one job so the dispatcher never blocks handing out a
		// run: every worker is between jobs whenever its owner
		// dispatches.
		ch := make(chan poolJob, 1)
		p.work[i] = ch
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range ch {
				if job.rank < job.parties {
					job.main(job.rank)
				}
				job.done.Done()
			}
		}()
	}
	return p, nil
}

// Domains returns the root pool's affinity-domain count (1 for a
// NewPool pool). A sub-pool reports its root's partition.
func (p *Pool) Domains() int {
	if p.root != nil {
		return p.root.nd
	}
	return p.nd
}

// Workers returns the pool's worker count: the resident total on a
// root pool, the lease size on a sub-pool.
func (p *Pool) Workers() int {
	if p.root == nil {
		return len(p.ids)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ids)
}

// Free returns how many workers are currently leasable: neither leased
// to a sub-pool nor occupied by a root run. A sub-pool cannot lease
// and always reports 0.
func (p *Pool) Free() int {
	if p.root != nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Split leases n workers out of the root pool's free set as a
// sub-pool. It never blocks: if fewer than n workers are free the
// lease is refused, which is what lets an admission scheduler decide
// to queue or preempt instead of deadlocking on capacity. Runs on
// disjoint sub-pools execute concurrently.
func (p *Pool) Split(n int) (*Pool, error) {
	if p.root != nil {
		return nil, fmt.Errorf("par: Split on a sub-pool; lease from the root pool")
	}
	if n < 1 {
		return nil, fmt.Errorf("%w, got %d", ErrBadLeaseSize, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	ids, err := p.takeLocked(n)
	if err != nil {
		return nil, err
	}
	return &Pool{root: p, ids: ids}, nil
}

// Release returns a sub-pool's workers to the root's free set and
// marks the lease unusable. It waits for a run in flight on this
// sub-pool to finish; it is idempotent. On a root pool Release is
// Close.
func (p *Pool) Release() {
	if p.root == nil {
		p.Close()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.root.putBack(p.ids)
	p.ids = nil
}

// takeLocked removes n worker indices from the free set; the caller
// holds the root's mu. Placement is domain-aware and deterministic
// given the lease history: the lease lands in the tightest single
// domain whose free workers fit it (fewest free, then lowest domain
// index), and only when no domain fits does it span several — whole
// domains drained fullest-first, the final partial take again
// best-fit. Within a domain the lowest-numbered free workers are
// taken, so a single-domain pool reproduces the historical
// lowest-numbered order exactly.
func (p *Pool) takeLocked(n int) ([]int, error) {
	if len(p.free) < n {
		return nil, fmt.Errorf("%w: want %d but only %d of %d are free", ErrInsufficientWorkers, n, len(p.free), len(p.ids))
	}
	// Free workers grouped by domain; p.free is sorted, so each group
	// is sorted too.
	byDom := make([][]int, p.nd)
	for _, id := range p.free {
		d := p.domOf[id]
		byDom[d] = append(byDom[d], id)
	}
	var ids []int
	takeFrom := func(d, k int) {
		ids = append(ids, byDom[d][:k]...)
		byDom[d] = byDom[d][k:]
	}
	for need := n; need > 0; need = n - len(ids) {
		// Tightest domain that covers the remaining need.
		best := -1
		for d, w := range byDom {
			if len(w) >= need && (best < 0 || len(w) < len(byDom[best])) {
				best = d
			}
		}
		if best >= 0 {
			takeFrom(best, need)
			break
		}
		// No single domain covers it: drain the fullest whole domain
		// (lowest index on ties) and go around again.
		for d, w := range byDom {
			if best < 0 || len(w) > len(byDom[best]) {
				best = d
			}
		}
		takeFrom(best, len(byDom[best]))
	}
	sort.Ints(ids)
	rest := p.free[:0]
	for _, w := range byDom {
		rest = append(rest, w...)
	}
	sort.Ints(rest)
	p.free = rest
	return ids, nil
}

// putBack returns worker indices to the root's free set and wakes
// anyone waiting on capacity (a root Run, or Close).
func (p *Pool) putBack(ids []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, ids...)
	sort.Ints(p.free)
	p.cond.Broadcast()
}

// dispatch hands one run to every worker this pool owns and waits for
// all of them — including the idle surplus beyond the run's party
// count — to check back in. The caller (Run) has exclusive use of
// p.ids for the duration.
func (p *Pool) dispatch(parties int, main func(id int)) {
	root := p
	if p.root != nil {
		root = p.root
	}
	var done sync.WaitGroup
	done.Add(len(p.ids))
	for rank, id := range p.ids {
		root.work[id] <- poolJob{rank: rank, parties: parties, main: main, done: &done}
	}
	done.Wait()
}

// Run executes one workload on the pool's workers, exactly as Run(cfg)
// would on fresh goroutines — cross-validation tests assert the
// results are identical. On a root pool, Run first acquires every
// worker (concurrent root runs serialize, and a queued caller's Cancel
// is still honored the moment its run starts); on a sub-pool it uses
// the leased workers, so runs on disjoint leases proceed in parallel.
// The topology must fit the pool it runs on.
func (p *Pool) Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if p.root != nil {
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.closed {
			return Result{}, ErrLeaseReleased
		}
		if n := cfg.Topo.Size(); n > len(p.ids) {
			return Result{}, fmt.Errorf("par: config needs %d workers but the sub-pool has %d", n, len(p.ids))
		}
		return runOn(&cfg, p)
	}
	if n := cfg.Topo.Size(); n > len(p.ids) {
		return Result{}, fmt.Errorf("par: config needs %d workers but the pool has %d", n, len(p.ids))
	}
	p.mu.Lock()
	for !p.closed && len(p.free) != len(p.ids) {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		return Result{}, ErrPoolClosed
	}
	p.free = p.free[:0]
	p.mu.Unlock()
	defer p.putBack(p.ids)
	return runOn(&cfg, p)
}

// Close shuts the resident workers down and waits for them to exit.
// It blocks until every lease is released and any run in flight
// completes; after Close, Run and Split return errors. On a sub-pool
// Close is Release.
func (p *Pool) Close() {
	if p.root != nil {
		p.Release()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for len(p.free) != len(p.ids) {
		p.cond.Wait()
	}
	for _, ch := range p.work {
		close(ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
