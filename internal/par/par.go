// Package par is the real-parallel execution backend: it runs the
// unchanged app.App workloads over P worker goroutines on actual
// cores, where the virtual-time simulator (internal/sim + ripsrt)
// runs them one node at a time. The workers are pinned to the nodes
// of a virtual machine topology — worker k plays node k of the mesh,
// tree or hypercube — and execute the paper's phase protocol for
// real:
//
//   - User phases: every worker executes tasks from its own deque,
//     filing spawned children under the configured local policy (Lazy:
//     straight back into the executable deque; Eager: into a staging
//     list that only a system phase can release).
//   - Transfer detection: the ANY policy is an atomic request word
//     carrying the user-phase index — the worker whose drain leaves
//     nobody busy publishes it at once, a worker drained for a whole
//     detector interval publishes it while others still work
//     (compare-and-swap, so redundant initiators cancel exactly like
//     ripsrt's init broadcast with a phase index), and every other
//     worker honours it after finishing at most one more task. The
//     ALL policy needs no signalling at all: a drained
//     worker simply enters the phase barrier, which by construction
//     completes only when every worker has drained.
//   - System phases: a phase-indexed epoch barrier stops the world;
//     the last worker to arrive becomes the leader, snapshots the
//     loads, runs the pure planner of the machine topology
//     (mwa.Plan, treewalk.Plan or cubewalk.Plan — the same code the
//     simulator's message-passing phases are validated against) and
//     the plan is applied as bulk transfers between deques. Conservation
//     and the Theorem 1 balance are invariant-checked on every phase.
//
// There is one implementation of that protocol (engine.go), levelled
// over affinity domains: stealing inside a domain, planned phases
// across domains. The three strategies are three parameterisations of
// it — RIPS one worker per domain, Hybrid the machine's NUMA domains,
// Steal one domain spanning the machine — so RIPS versus work-stealing
// is an apples-to-apples wall-clock comparison over one worker layout,
// one deque, one barrier and one detector — `go run ./bench` reports
// them as the par_fine and steal_fine workloads and the
// par.hybrid.* layer metrics. A job that spans processes runs the same
// engine in each of them in member mode (member.go): one domain per
// process, the system phase handed to the caller's exchange — which is
// what a member of internal/cluster is, and what cluster_fine measures.
//
// Because this backend measures real elapsed time, its files carry
// file-scope wallclock waivers (see the policy in internal/analysis):
// wall-clock reads are the whole point here, while everything the
// answer depends on — the task decomposition — stays deterministic.
// Cross-validation tests prove the solution counts match the
// simulator's and the sequential profile's at every worker count.
package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// Strategy selects the scheduling engine run by the workers.
type Strategy int

const (
	// RIPS alternates user phases with stop-the-world system phases
	// running the topology's exact walking algorithm over the workers:
	// the engine with every worker a domain of its own.
	RIPS Strategy = iota
	// Steal is the work-stealing comparator: idle workers steal from the
	// top of random victims' Chase-Lev deques, anywhere on the machine.
	// It is the engine with a single domain and a detector that never
	// times out; the barrier it crosses at each round boundary plans and
	// moves nothing and is not reported as a phase.
	Steal
	// Hybrid is the hierarchical combination: workers are partitioned
	// into affinity domains (NUMA nodes by default, see Config.Domains);
	// within a domain idle workers steal from their domain-mates'
	// Chase-Lev deques, while the RIPS phase protocol — epoch barrier,
	// leader-run system phases, the unchanged walking-algorithm
	// planners — balances load across domains only.
	Hybrid
)

func (s Strategy) String() string {
	switch s {
	case Steal:
		return "steal"
	case Hybrid:
		return "hybrid"
	}
	return "rips"
}

// DefaultDetectInterval is the base (and floor) of the ANY-policy
// initiation delay: while some other worker is still busy, a drained
// worker waits this long for another worker to initiate before
// requesting the transfer itself. The real-time analogue of
// ripsrt.DefaultInitBackoff. When Config.DetectInterval is zero the
// wait adapts upward from this base as the per-phase migration yield
// falls (see detector.go).
const DefaultDetectInterval = 100 * time.Microsecond

// Config describes one real-parallel run.
type Config struct {
	// Topo is the virtual machine the workers are pinned to; its Size
	// is the worker count. RIPS requires a mesh, tree or hypercube
	// (the topologies with exact walking algorithms); Steal accepts
	// any topology and uses only its size.
	Topo topo.Topology
	// App is the workload; its Execute runs for real on the workers.
	App app.App
	// Strategy selects RIPS (default), work stealing, or the
	// hierarchical hybrid.
	Strategy Strategy
	// Domains partitions the workers into contiguous affinity domains
	// for the Hybrid strategy: stealing stays within a domain, system
	// phases balance across domains. Zero auto-detects the machine's
	// NUMA domains (internal/affinity; one domain on machines without a
	// visible NUMA topology); an explicit count is clamped to the
	// worker count, and on hypercube machines rounded down to a power
	// of two (the domain-level planner is cubewalk). Under Steal a
	// positive count only classifies steals as intra- versus
	// cross-domain in the Result — victim selection is unchanged.
	// Rejected (when positive) under RIPS, which has no domains.
	Domains int
	// Local and Global select the RIPS transfer policy (ANY-Lazy, the
	// paper's best combination, is the zero value). Ignored by Steal.
	Local  ripsrt.LocalPolicy
	Global ripsrt.GlobalPolicy
	// DetectInterval throttles the ANY detector: a drained worker
	// waits at most this long before publishing the transfer request,
	// giving busy workers time to spawn more tasks (the wall-clock
	// analogue of ripsrt.Config.InitBackoff); once every worker has
	// drained the request goes out at once. A positive value is a
	// constant override; negative disables the wait. Zero (the
	// default) makes the wait adaptive: it starts at
	// DefaultDetectInterval and scales with an EWMA of tasks moved per
	// system phase, so near-empty phases back off automatically. Only
	// the timing of phases depends on this; the computed answer never
	// does. Ignored by Steal: a barrier moves nothing there, so a
	// drained thief waits for work or for the last worker to drain.
	DetectInterval time.Duration
	// Seed feeds the steal strategy's per-worker victim RNGs. The
	// answer never depends on it; only steal order does.
	Seed int64
	// Cancel, when non-nil, aborts the run once the channel is closed.
	// Workers observe it between task executions and at phase
	// boundaries — a canceled RIPS run stops at the next system phase
	// the epoch barrier opens (a drained worker's detector wait is
	// interrupted too), with no worker left parked. The partial Result
	// has Canceled set and conservation unchecked; Run returns it
	// alongside ErrCanceled.
	Cancel <-chan struct{}
	// OnPhase, when non-nil, is called by the RIPS phase leader at the
	// end of every system phase with a snapshot of the phase's outcome.
	// It runs with the world stopped — every other worker is parked in
	// the epoch barrier — so it must not block; hand the value off and
	// return (see metrics.PhaseInfo). Ignored by Steal, which has no
	// phases.
	OnPhase func(metrics.PhaseInfo)

	// member is set by NewMemberRun only: the run is one member of a
	// multi-process job (member.go).
	member *Member
}

func (c *Config) validate() error {
	if c.Topo == nil {
		return fmt.Errorf("par: Config.Topo is required")
	}
	if c.App == nil {
		return fmt.Errorf("par: Config.App is nil")
	}
	if c.Topo.Size() < 1 {
		return fmt.Errorf("par: empty topology %s", c.Topo.Name())
	}
	if c.Domains < 0 {
		return fmt.Errorf("par: negative Domains %d", c.Domains)
	}
	switch c.Strategy {
	case RIPS:
		if c.Domains > 0 {
			return fmt.Errorf("par: Domains applies to the Hybrid and Steal strategies, not RIPS")
		}
	case Hybrid, Steal:
	default:
		return fmt.Errorf("par: unknown strategy %d", int(c.Strategy))
	}
	if c.Strategy == Steal {
		return nil // plans nothing: any topology, only its size is used
	}
	switch c.Topo.(type) {
	case *topo.Mesh, *topo.Tree, *topo.Hypercube:
		return nil
	default:
		return fmt.Errorf("par: no system-phase planner for %s", c.Topo.Name())
	}
}

func (c *Config) detectInterval() time.Duration {
	switch {
	case c.DetectInterval < 0:
		return 0
	case c.DetectInterval == 0:
		return DefaultDetectInterval
	default:
		return c.DetectInterval
	}
}

// Result carries the wall-clock measures of one run — the real-time
// analogues of the paper's T, Th and Ti — plus the task accounting
// shared with the simulator backend.
type Result struct {
	// Workers is the worker count (the topology size).
	Workers int
	// Wall is the elapsed execution time T.
	Wall time.Duration
	// Busy is the total task-execution time summed over workers; the
	// effective parallelism is Busy/Wall.
	Busy time.Duration
	// Overhead is the per-worker scheduling overhead Th. Under RIPS
	// the system phases stop the world, so every worker pays the full
	// stop-the-world time; under Steal it is zero (steal overhead is
	// indistinguishable from idle spinning, and its round barriers are
	// not system phases).
	Overhead time.Duration
	// Idle is the per-worker average idle time Ti, derived as
	// Wall - Overhead - Busy/Workers.
	Idle time.Duration
	// Task accounting, as in ripsrt.Result.
	Generated, Executed, Nonlocal int64
	// Migrated counts task transfers applied by RIPS system phases;
	// Steals counts successful steals of the Steal strategy.
	Migrated, Steals int64
	// Domains is the resolved affinity-domain count of a Hybrid run
	// (also set under Steal when Config.Domains was positive, where it
	// only classifies traffic). Zero when the run had no domain notion.
	Domains int
	// CrossSteals counts steals whose victim lived in another domain.
	// Hybrid sweeps only the thief's own domain block, so it is always
	// zero there; Steal sweeps every other worker of the machine, and
	// with Config.Domains set this is the share of its steals that
	// crossed a boundary of that partition — the traffic the hybrid
	// strategy eliminates.
	CrossSteals int64
	// DomainSteals and DomainMigrated break Steals and Migrated down by
	// domain (the thief's domain; the source domain of a migration).
	// DomainSteals is nil when Domains is zero; DomainMigrated is
	// additionally nil under Steal, which has no migrations.
	DomainSteals   []int64
	DomainMigrated []int64
	// Phases is the number of RIPS system phases (0 under Steal).
	Phases int64
	// Waves is always zero: the leader applies every plan. The field
	// stays only because bench/ reads it.
	Waves int64
	// PhaseSum and PhaseMax summarize the global task totals observed
	// by the system phases (sum over phases, and the largest single
	// snapshot); Config.OnPhase sees every phase's total.
	PhaseSum int64
	PhaseMax int
	// VirtualWork is the summed virtual time reported by Execute — it
	// must equal the sequential profile's Work for any worker count,
	// which cross-validation tests assert.
	VirtualWork sim.Time
	// AppResult is the aggregated app.Counted result (e.g. solutions
	// found); it must match the sequential profile's Result exactly.
	AppResult int64
	// Canceled reports that the run was aborted through Config.Cancel.
	// Every other field then describes only the work completed before
	// the abort: Executed may be less than Generated (the difference is
	// the abandoned tasks) and AppResult is a partial count.
	Canceled bool
}

// Run executes the workload on real cores and returns the wall-clock
// measures. The caller controls true hardware parallelism through
// GOMAXPROCS; Run itself never changes it. Each call spawns fresh
// worker goroutines; a long-lived caller multiplexing many runs should
// use a Pool instead.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	return runOn(&cfg, goDriver{})
}

// runOn executes a validated config on the given driver — fresh
// goroutines or a pool's resident workers; the protocol is identical.
func runOn(cfg *Config, d driver) (Result, error) {
	res, err := newEngineRun(cfg).run(d)
	if err != nil {
		return res, err
	}
	if res.Canceled {
		// The abort abandoned tasks by design: conservation cannot hold
		// and is not checked. The partial result still travels with the
		// error so callers can report progress made.
		return res, ErrCanceled
	}
	invariant.Conserved(int(res.Generated), int(res.Executed), "par: run")
	if res.Executed != res.Generated {
		return res, fmt.Errorf("par: executed %d of %d generated tasks", res.Executed, res.Generated)
	}
	return res, nil
}

// ErrCanceled reports that a run was aborted through Config.Cancel.
// The Result returned alongside it is partial but internally
// consistent: counters cover exactly the work done before the abort.
var ErrCanceled = errors.New("par: run canceled")

// watchCancel mirrors a cancellation channel into an atomic flag the
// workers can poll allocation-free on their hot paths (a channel select
// per task would be far more expensive than a load). The returned stop
// function releases the watcher goroutine; callers defer it so a
// completed run never leaks the watcher.
func watchCancel(ch <-chan struct{}, flag *atomic.Bool) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			flag.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// workerID packs per-worker task IDs into the node-partitioned space
// used by the simulator runtime.
func packID(worker int, seq uint64) uint64 {
	return uint64(worker)<<40 | seq
}

// counters is the per-worker accounting every strategy shares. Each
// worker mutates only its own struct during execution; the epoch
// barrier orders the final reads.
type counters struct {
	seq       uint64
	generated int64
	executed  int64
	nonlocal  int64
	appResult int64
	vwork     sim.Time
	busy      time.Duration
}
