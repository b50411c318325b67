// Package rips is a library implementation of Runtime Incremental
// Parallel Scheduling (RIPS) — Wu & Shu, "High-Performance Incremental
// Scheduling on Massively Parallel Computers: A Global Approach"
// (SC'95) — together with the substrate the paper runs on: a
// deterministic virtual-time simulator of a mesh-connected
// distributed-memory machine, the Mesh Walking Algorithm and its
// optimal min-cost-flow reference, and the dynamic load-balancing
// baselines (randomized allocation, gradient model, receiver-initiated
// diffusion) the paper compares against.
//
// The typical entry point is RunContext: define a workload as an App
// (a deterministic task-parallel computation, possibly in several
// globally-synchronized rounds), pick a machine size and a scheduling
// Algorithm, and read off the paper's metrics — execution time,
// overhead, idle time, locality, efficiency — from the Result.
//
//	queens := rips.NQueens(13)
//	res, err := rips.RunContext(ctx, queens, rips.Config{Procs: 32})
//	fmt.Printf("T=%v eff=%.0f%%\n", res.Time, 100*res.Efficiency)
//
// A Config is a plain struct literal; Config.Validate checks it before
// any resources are committed (RunContext validates implicitly). Runs
// can be canceled through the context (the partial Result has Canceled
// set) and observed phase by phase through Config.OnPhase. Long-lived
// callers multiplexing many Parallel-backend runs share one worker
// Pool via Config.Pool — the substrate of the ripsd serving frontend
// (internal/serve).
//
// The full experiment harness that regenerates every table and figure
// of the paper lives in cmd/ripsbench.
package rips

import (
	"context"
	"fmt"
	"time"

	"rips/internal/app"
	"rips/internal/apps/gromos"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/dynsched"
	"rips/internal/metrics"
	"rips/internal/par"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// App is a deterministic task-parallel workload; see the app package
// for the contract. Implement it to schedule your own computation, or
// use the built-in workloads (NQueens, Puzzle15, MolecularDynamics).
type App = app.App

// Spawn is a task payload emitted by an App: Data, or the inline words
// W when Data is nil.
type Spawn = app.Spawn

// Words is the inline payload of a Spawn whose Data is nil; Execute
// receives it as a *Words, valid until Execute returns.
type Words = app.Words

// Profile is a sequential execution profile (Ts, per-round work).
type Profile = app.Profile

// Measure profiles an App sequentially; the result feeds efficiency
// and optimal-efficiency computations.
func Measure(a App) Profile { return app.Measure(a) }

// Time is a span of virtual time in nanoseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Algorithm selects the scheduling strategy.
type Algorithm int

const (
	// RIPS is runtime incremental parallel scheduling with the
	// ANY-Lazy transfer policy (the paper's best combination).
	RIPS Algorithm = iota
	// Random is randomized allocation: every new task goes to a
	// uniformly random processor.
	Random
	// Gradient is the gradient model: load diffuses hop-by-hop toward
	// the nearest underloaded processor.
	Gradient
	// RID is receiver-initiated diffusion: underloaded processors
	// request work from their most-loaded neighbour.
	RID
	// Static performs no load balancing at all: tasks execute where
	// they are generated (for block-distributed workloads, this is the
	// compile-time-only distribution the paper calls static
	// scheduling). A useful lower bound showing why a balancer is
	// needed at all.
	Static
	// Steal is Chase-Lev work stealing, the standard shared-memory
	// scheduler RIPS's global approach is compared against. It runs
	// only on the Parallel backend (there is no message-cost model for
	// it in the simulator).
	Steal
)

// Backend selects what actually executes the run.
type Backend int

const (
	// Simulate (the default) runs the workload on the deterministic
	// virtual-time simulator of a distributed-memory machine — the
	// paper's methodology, with modelled message costs.
	Simulate Backend = iota
	// Parallel runs the workload for real on P worker goroutines over
	// shared memory (internal/par): real cores, real phase barriers,
	// wall-clock results. Supports the RIPS and Steal algorithms.
	Parallel
	// Hybrid runs the workload for real like Parallel, but
	// hierarchically: the workers are partitioned into affinity (NUMA)
	// domains and pinned to their domain's CPUs, RIPS system phases
	// balance load across domains only, and within a domain workers
	// share tasks by Chase-Lev work stealing. The paper's global phase
	// protocol pays its barrier cost once per imbalance instead of once
	// per core, while the cheap intra-domain traffic never crosses a
	// memory boundary. The algorithm is RIPS by construction
	// (Config.Algorithm must be RIPS); Config.Domains shapes the
	// partition.
	Hybrid
	// Cluster runs the workload across several ripsd processes: every
	// cluster node plays one node of a cluster-level mirror topology,
	// the job's coordinator (elected by consistent-hash ring position)
	// runs the unchanged pure planners over length-prefixed rips-wire/v1
	// frames, and task moves ship as serialized batches over persistent
	// TCP connections (internal/cluster). The algorithm is RIPS by
	// construction; Domains and Pool do not apply (Validate rejects
	// them). A Cluster config is not locally runnable — RunContext
	// refuses it; submit the job to a ripsd started with -cluster
	// instead.
	Cluster
)

// PhaseInfo is the per-system-phase progress snapshot delivered to
// Config.OnPhase; see metrics.PhaseInfo for the field contract.
type PhaseInfo = metrics.PhaseInfo

// Config describes one run.
type Config struct {
	// Procs is the machine size; the mesh is shaped MxM or MxM/2 like
	// the paper's. Set Rows/Cols instead for an explicit shape.
	Procs      int
	Rows, Cols int
	// Topology selects the machine interconnect: "" or "mesh" (the
	// paper's machine), "tree" (binary tree; RIPS uses Tree Walking
	// Algorithm system phases) or "hypercube" (Procs must be a power of
	// two; RIPS uses incremental Dimension Exchange system phases).
	// Every Algorithm runs on every topology.
	Topology string
	// Algorithm selects the scheduler (default RIPS).
	Algorithm Algorithm
	// Backend selects the simulator (default) or real shared-memory
	// parallel execution (flat Parallel, or the hierarchical Hybrid).
	Backend Backend
	// Domains is the Hybrid backend's affinity-domain count: how many
	// contiguous worker blocks the machine is split into for the
	// phase-across/steal-within hierarchy. Zero (the default)
	// auto-detects the host's NUMA nodes; any positive count is clamped
	// to the worker count, and on hypercube machines rounded down to a
	// power of two (the domain-level planner is the hypercube walking
	// algorithm). Hybrid backend only — Validate rejects it elsewhere.
	// The partition never changes the answer, only where work runs.
	Domains int
	// Eager switches RIPS to the two-queue eager local policy.
	Eager bool
	// All switches RIPS to the ALL global transfer policy.
	All bool
	// Timeout bounds a run's real elapsed time: when positive,
	// RunContext derives a deadline that far in the future from its
	// context, so the run cancels itself at the next phase boundary
	// once the budget expires (Result.Canceled set, the error is
	// context.DeadlineExceeded). Zero means no time bound. On the
	// Cluster backend the coordinator applies the same bound to the
	// distributed job.
	Timeout time.Duration
	// Seed makes runs reproducible; simulated runs are deterministic
	// per seed (the Parallel backend's answer is seed- and
	// timing-independent, but steal orders are not).
	Seed int64
	// OnPhase, when non-nil, receives a snapshot after every RIPS
	// system phase — the progress feed a server streams to clients.
	// The hook runs on the scheduler's critical path (the phase leader
	// with the world stopped on the Parallel backend; node 0's
	// simulated program on Simulate), so it must not block: hand the
	// value off and return. Ignored by the baseline algorithms and
	// Steal, which have no phases.
	OnPhase func(PhaseInfo)
	// Pool, when non-nil, runs Parallel-backend work on a shared
	// resident worker pool instead of spawning fresh goroutines — the
	// serving configuration, where many submissions multiplex onto one
	// set of cores. The machine must fit the pool (see Validate).
	// Ignored by the Simulate backend, which has no real workers.
	Pool *Pool
}

// Result carries the paper's measures for one run.
type Result struct {
	// Time is the parallel execution time T. Zero on the Parallel
	// backend, where the measured time is the real Wall below.
	Time Time
	// Overhead (Th) and Idle (Ti) are per-node averages. On the
	// Parallel backend they are measured in real (wall-clock)
	// nanoseconds rather than virtual time.
	Overhead, Idle Time
	// Tasks is the number of tasks generated and executed.
	Tasks int64
	// Nonlocal is how many tasks executed away from their origin.
	Nonlocal int64
	// Phases is the number of RIPS system phases (0 for baselines).
	Phases int64
	// SeqTime is the sequential execution time Ts.
	SeqTime Time
	// Efficiency is Ts/(N*T); Speedup is Ts/T. On the Parallel
	// backend, Efficiency is busy/(N*wall) and Speedup is
	// Efficiency*N (the effective parallelism).
	Efficiency, Speedup float64
	// Wall is the elapsed real time of a Parallel-backend run (zero
	// for simulated runs, whose time is the virtual Time above).
	Wall time.Duration
	// Steals counts successful steals of a Parallel Steal run, or the
	// intra-domain steals of a Hybrid run.
	Steals int64
	// Domains is the resolved affinity-domain count of a Hybrid run —
	// what Config.Domains = 0 auto-detected, or the clamped explicit
	// request. Zero on the other backends.
	Domains int
	// AppResult is the aggregated application result (e.g. solutions
	// found) for result-counting workloads.
	AppResult int64
	// Canceled reports that the run was stopped early through its
	// context. Every other field then covers only the work completed
	// before the cancellation: Tasks counts generated tasks of which
	// some were never executed, AppResult is a partial count, and the
	// derived Efficiency/Speedup are zero (they are meaningless for a
	// truncated run).
	Canceled bool
}

// machine resolves the configured interconnect.
func (c Config) machine() (topo.Topology, error) {
	switch c.Topology {
	case "", "mesh":
		if c.Rows > 0 || c.Cols > 0 {
			if c.Rows <= 0 || c.Cols <= 0 {
				return nil, fmt.Errorf("rips: Rows and Cols must both be positive")
			}
			return topo.NewMesh(c.Rows, c.Cols), nil
		}
		if c.Procs <= 0 {
			return nil, fmt.Errorf("rips: Config.Procs must be positive")
		}
		return topo.SquarishMesh(c.Procs), nil
	case "tree":
		if c.Procs <= 0 {
			return nil, fmt.Errorf("rips: Config.Procs must be positive")
		}
		return topo.NewTree(c.Procs), nil
	case "hypercube":
		if c.Procs <= 0 || c.Procs&(c.Procs-1) != 0 {
			return nil, fmt.Errorf("rips: hypercube needs a power-of-two Procs, got %d", c.Procs)
		}
		d := 0
		for 1<<d < c.Procs {
			d++
		}
		return topo.NewHypercube(d), nil
	default:
		return nil, fmt.Errorf("rips: unknown topology %q", c.Topology)
	}
}

// Nodes returns the configured machine's node count — Procs, Rows x
// Cols, or the topology's resolution of them. For a Parallel run this
// is also the number of pool workers the run occupies, which is what
// the multi-tenant admission arbiter charges a submission for.
func (c Config) Nodes() (int, error) {
	m, err := c.machine()
	if err != nil {
		return 0, err
	}
	return m.Size(), nil
}

// Validate checks the whole configuration eagerly — machine shape,
// algorithm/backend compatibility, pool capacity — and returns a
// descriptive error for the first problem found. RunContext validates
// implicitly; call Validate directly to reject a bad configuration
// (e.g. an incoming job submission) before committing resources to it.
func (c Config) Validate() error {
	machine, err := c.machine()
	if err != nil {
		return err
	}
	switch c.Backend {
	case Simulate, Parallel, Hybrid, Cluster:
	default:
		return fmt.Errorf("rips: unknown backend %v", c.Backend)
	}
	switch c.Algorithm {
	case RIPS, Random, Gradient, RID, Static, Steal:
	default:
		return fmt.Errorf("rips: unknown algorithm %v", c.Algorithm)
	}
	if c.Domains < 0 {
		return fmt.Errorf("rips: Config.Domains must be non-negative, got %d", c.Domains)
	}
	if c.Domains > 0 && c.Backend != Hybrid {
		return fmt.Errorf("rips: Config.Domains applies only to the Hybrid backend")
	}
	if c.Timeout < 0 {
		return fmt.Errorf("rips: Config.Timeout must be non-negative, got %v", c.Timeout)
	}
	switch c.Backend {
	case Parallel:
		if c.Algorithm != RIPS && c.Algorithm != Steal {
			return fmt.Errorf("rips: algorithm %v runs only on the Simulate backend", c.Algorithm)
		}
		if err := c.poolFits(machine); err != nil {
			return err
		}
	case Hybrid:
		if c.Algorithm != RIPS {
			return fmt.Errorf("rips: the Hybrid backend embeds its own intra-domain stealing; Algorithm must be RIPS, got %v", c.Algorithm)
		}
		if err := c.poolFits(machine); err != nil {
			return err
		}
	case Cluster:
		// The cluster's per-process executor embeds the phase protocol;
		// there is no Steal or baseline variant of it, and no local pool
		// or affinity partition to configure — each dimension is a
		// different process, not a different goroutine.
		if c.Algorithm != RIPS {
			return fmt.Errorf("rips: the Cluster backend runs the phase protocol only; Algorithm must be RIPS, got %v", c.Algorithm)
		}
		if c.Pool != nil {
			return fmt.Errorf("rips: the Cluster backend runs on cluster nodes, not a local worker pool")
		}
	default: // Simulate
		if c.Algorithm == Steal {
			return fmt.Errorf("rips: the steal algorithm runs only on the Parallel backend")
		}
	}
	return nil
}

// poolFits checks the machine fits the configured Pool's lease, when
// one is set.
func (c Config) poolFits(machine topo.Topology) error {
	if c.Pool == nil {
		return nil
	}
	if n := machine.Size(); n > c.Pool.Workers() {
		return fmt.Errorf("rips: config needs %d workers but the pool has %d", n, c.Pool.Workers())
	}
	return nil
}

// RunContext executes the workload and returns the paper's metrics.
// Canceling the context stops the run at its next phase boundary —
// within about one detector interval on the Parallel backend — and
// returns the context's error together with a partial Result whose
// Canceled flag is set. The sequential profile is measured on the fly;
// use RunProfiledContext to reuse a Profile across runs.
func RunContext(ctx context.Context, a App, cfg Config) (Result, error) {
	p := app.Measure(a)
	return RunProfiledContext(ctx, a, p, cfg)
}

// RunProfiledContext is RunContext with a pre-computed sequential
// profile.
func RunProfiledContext(ctx context.Context, a App, p Profile, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Backend == Cluster {
		return Result{}, fmt.Errorf("rips: the Cluster backend runs through a cluster node, not in-process; submit the job to a ripsd started with -cluster (internal/cluster executes it)")
	}
	mesh, err := cfg.machine()
	if err != nil {
		return Result{}, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	var out Result
	out.SeqTime = p.Work
	if cfg.Backend == Parallel || cfg.Backend == Hybrid {
		return runParallel(ctx, a, p, cfg, mesh)
	}
	switch cfg.Algorithm {
	case RIPS:
		rc := ripsrt.Config{Topo: mesh, App: a, Seed: cfg.Seed, Cancel: ctx.Done(), OnPhase: cfg.OnPhase}
		if cfg.Eager {
			rc.Local = ripsrt.Eager
		}
		if cfg.All {
			rc.Global = ripsrt.All
		}
		res, err := ripsrt.Run(rc)
		if err != nil && !res.Canceled {
			return Result{}, err
		}
		out.Time = res.Time
		out.Overhead = res.Overhead
		out.Idle = res.Idle
		out.Tasks = res.Generated
		out.Nonlocal = res.Nonlocal
		out.Phases = res.Phases
		out.AppResult = res.AppResult
		if res.Canceled {
			out.Canceled = true
			return out, ctxErr(ctx, err)
		}
	case Random, Gradient, RID, Static:
		dc := dynsched.Config{Topo: mesh, App: a, Seed: cfg.Seed, Cancel: ctx.Done()}
		switch cfg.Algorithm {
		case Random:
			dc.Strategy = dynsched.NewRandom()
		case Gradient:
			dc.Strategy = dynsched.NewGradient()
		case Static:
			dc.Strategy = dynsched.NewStatic()
		default:
			dc.Strategy = dynsched.NewRID(dynsched.DefaultRIDParams())
		}
		res, err := dynsched.Run(dc)
		if err != nil && !res.Canceled {
			return Result{}, err
		}
		out.Time = res.Time
		out.Overhead = res.Overhead
		out.Idle = res.Idle
		out.Tasks = res.Generated
		out.Nonlocal = res.Nonlocal
	default:
		return Result{}, fmt.Errorf("rips: unknown algorithm %v", cfg.Algorithm)
	}
	out.Efficiency = metrics.Efficiency(p.Work, mesh.Size(), out.Time)
	out.Speedup = metrics.Speedup(p.Work, out.Time)
	return out, nil
}

// ctxErr prefers the context's own error (context.Canceled or
// DeadlineExceeded — what callers select on) over the backend's
// internal cancellation sentinel.
func ctxErr(ctx context.Context, fallback error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return fallback
}

// runParallel dispatches a run to the real shared-memory backends
// (Parallel and Hybrid) — fresh goroutines, or the configured Pool's
// resident workers.
func runParallel(ctx context.Context, a App, p Profile, cfg Config, machine topo.Topology) (Result, error) {
	pc := par.Config{
		Topo:    machine,
		App:     a,
		Seed:    cfg.Seed,
		Cancel:  ctx.Done(),
		OnPhase: cfg.OnPhase,
	}
	if cfg.Backend == Hybrid {
		pc.Strategy = par.Hybrid
		pc.Domains = cfg.Domains
	}
	switch cfg.Algorithm {
	case RIPS:
		if cfg.Eager {
			pc.Local = ripsrt.Eager
		}
		if cfg.All {
			pc.Global = ripsrt.All
		}
	case Steal:
		pc.Strategy = par.Steal
	default:
		return Result{}, fmt.Errorf("rips: algorithm %v runs only on the Simulate backend", cfg.Algorithm)
	}
	var res par.Result
	var err error
	if cfg.Pool != nil {
		res, err = cfg.Pool.p.Run(pc)
	} else {
		res, err = par.Run(pc)
	}
	if err != nil && !res.Canceled {
		return Result{}, err
	}
	out := Result{
		Overhead:  Time(res.Overhead),
		Idle:      Time(res.Idle),
		Tasks:     res.Generated,
		Nonlocal:  res.Nonlocal,
		Phases:    res.Phases,
		SeqTime:   p.Work,
		Wall:      res.Wall,
		Steals:    res.Steals,
		Domains:   res.Domains,
		AppResult: res.AppResult,
	}
	if res.Canceled {
		out.Canceled = true
		return out, ctxErr(ctx, err)
	}
	eff := metrics.WallEfficiency(res.Busy, res.Workers, res.Wall)
	out.Efficiency = eff
	out.Speedup = eff * float64(res.Workers)
	return out, nil
}

// NQueens returns the paper's exhaustive N-Queens search workload
// (counting all solutions of the n-queens problem), decomposed at the
// paper's granularity.
func NQueens(n int) App { return nqueens.New(n, 4) }

// Puzzle15 returns one of the paper's three IDA* 15-puzzle
// configurations (1, 2 or 3).
func Puzzle15(config int) App {
	cfgs := puzzle.Configs()
	if config < 1 || config > len(cfgs) {
		panic(fmt.Sprintf("rips: Puzzle15 config %d out of range 1..%d", config, len(cfgs)))
	}
	return cfgs[config-1]
}

// MolecularDynamics returns the GROMOS surrogate workload with the
// given cutoff radius in Angstrom (the paper uses 8, 12 and 16).
func MolecularDynamics(cutoffA float64) App { return gromos.New(cutoffA) }
