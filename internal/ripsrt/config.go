// Package ripsrt is the RIPS runtime itself: Runtime Incremental
// Parallel Scheduling on the simulated mesh machine. Execution
// alternates between system phases — where every node cooperates in a
// message-passing run of the Mesh Walking Algorithm to rebalance all
// schedulable tasks — and user phases, where nodes execute tasks and
// generate new ones (Figure 1 of the paper).
//
// The transfer from user to system phase is governed by the paper's
// two policy axes: the local policy (Eager: two queues, every task is
// scheduled before execution; Lazy: a single queue, tasks may run
// where they were generated) and the global policy (ALL: transfer when
// every node drained, via a ready-signal reduction tree; ANY: the
// first drained node broadcasts an init signal, with a phase index to
// cancel redundant initiators). A periodic-reduction detector — the
// naive implementation the paper describes first — is available as an
// alternative to the signal-driven detectors.
package ripsrt

import (
	"fmt"

	"rips/internal/app"
	"rips/internal/metrics"
	"rips/internal/sim"
	"rips/internal/topo"
)

// LocalPolicy selects the paper's local transfer sub-policy.
type LocalPolicy int

const (
	// Lazy keeps a single RTE queue; newly generated tasks are
	// executable immediately and may never be scheduled at all.
	Lazy LocalPolicy = iota
	// Eager keeps RTS and RTE queues; every task must pass through a
	// system phase before it can execute.
	Eager
)

func (p LocalPolicy) String() string {
	if p == Eager {
		return "eager"
	}
	return "lazy"
}

// GlobalPolicy selects the paper's global transfer sub-policy.
type GlobalPolicy int

const (
	// Any transfers as soon as one node meets its local condition.
	Any GlobalPolicy = iota
	// All transfers only when every node meets its local condition.
	All
)

func (p GlobalPolicy) String() string {
	if p == All {
		return "all"
	}
	return "any"
}

// Detector selects how the global condition is tested.
type Detector int

const (
	// Signal is the event-driven implementation: ready-signal trees
	// for ALL, init broadcasts with phase indices for ANY.
	Signal Detector = iota
	// Periodic is the naive implementation: a global reduction every
	// Period of virtual time.
	Periodic
)

func (d Detector) String() string {
	if d == Periodic {
		return "periodic"
	}
	return "signal"
}

// The CPU cost of runtime bookkeeping, charged as system overhead on
// the node clocks: constants calibrated to mid-90s MPP software
// overheads (the paper reports ~1 ms per migration step and ~0.5 s
// total overhead for a 10 s run).
const (
	// costPerPhase is the fixed per-node cost of one phase transfer.
	costPerPhase = 50 * sim.Microsecond
	// costPerElem is the cost of processing one vector element in the
	// system phase's scheduling arithmetic.
	costPerElem = 200 * sim.Nanosecond
	// costPerTask is the cost of packing or unpacking one migrated task.
	costPerTask = 2 * sim.Microsecond
	// costPerEnqueue is the cost of enqueuing one newly generated task.
	costPerEnqueue = 1 * sim.Microsecond
)

// Config describes a RIPS run.
type Config struct {
	// Topo is the machine: the paper's Paragon mesh (MWA system
	// phases), or a binary tree (Tree Walking Algorithm) or hypercube
	// (incremental Dimension Exchange) — the topologies the paper's
	// companion work [32] covers.
	Topo topo.Topology
	// App is the workload.
	App app.App
	// Local and Global select the transfer policy (ANY-Lazy, the
	// paper's best combination, is the zero value).
	Local  LocalPolicy
	Global GlobalPolicy
	// Detector selects signal-driven (default) or periodic detection;
	// Period is the reduction interval for the periodic detector.
	Detector Detector
	Period   sim.Time
	// ExactCube switches hypercube machines from the incremental
	// Dimension Exchange system phase to the exact Cube Walking
	// Algorithm (balance within one task, like MWA on the mesh).
	ExactCube bool
	// Eureka models hardware or-barrier support for the ANY policy
	// (the Cray T3D eureka mode the paper cites): the initiator's init
	// signal reaches every node after eurekaLatency at unit cost,
	// instead of relaying through a software broadcast tree.
	Eureka bool
	// InitBackoff throttles the ANY policy: a drained node waits this
	// long (plus a small id-proportional jitter, so one node initiates
	// rather than all of them) before broadcasting init. Without it,
	// sparse phases — a round's first tasks still fanning out — trigger
	// a storm of nearly-empty system phases. Negative disables; zero
	// means the default of 1ms (DefaultInitBackoff).
	InitBackoff sim.Time
	// Latency prices messages; zero value means sim.DefaultLatency().
	Latency *sim.LatencyModel
	// Seed feeds the (rarely needed) node RNGs.
	Seed int64
	// MaxEvents optionally caps simulator events (safety net).
	MaxEvents uint64
	// Cancel, when non-nil, aborts the run once the channel is closed.
	// The simulator polls it between events; a canceled run returns a
	// partial Result with Canceled set alongside sim.ErrCanceled, and
	// run-level conservation is not checked (tasks were abandoned
	// mid-flight by design, not lost by a scheduler bug).
	Cancel <-chan struct{}
	// OnPhase, when non-nil, is called by node 0's simulated program
	// after every system phase with a snapshot of the phase's outcome.
	// It runs on the simulator's single driver thread while every other
	// node is parked, so it must not block; hand the value off and
	// return (see metrics.PhaseInfo).
	OnPhase func(metrics.PhaseInfo)
}

func (c *Config) validate() error {
	switch c.Topo.(type) {
	case nil:
		return fmt.Errorf("ripsrt: Config.Topo is required")
	case *topo.Mesh, *topo.Tree, *topo.Hypercube:
	default:
		return fmt.Errorf("ripsrt: no system-phase scheduler for %s", c.Topo.Name())
	}
	if c.App == nil {
		return fmt.Errorf("ripsrt: Config.App is nil")
	}
	if c.Detector == Periodic && c.Period <= 0 {
		return fmt.Errorf("ripsrt: periodic detector requires a positive Period")
	}
	return nil
}

func (c *Config) latency() sim.LatencyModel {
	if c.Latency != nil {
		return *c.Latency
	}
	return sim.DefaultLatency()
}

// DefaultInitBackoff is the ANY-policy initiation delay used when
// Config.InitBackoff is zero.
const DefaultInitBackoff = sim.Millisecond

// eurekaLatency is the hardware or-barrier signal latency of
// Config.Eureka.
const eurekaLatency = 10 * sim.Microsecond

func (c *Config) initBackoff() sim.Time {
	switch {
	case c.InitBackoff < 0:
		return 0
	case c.InitBackoff == 0:
		return DefaultInitBackoff
	default:
		return c.InitBackoff
	}
}

// PolicyName returns e.g. "any-lazy" — the paper's policy naming.
func (c *Config) PolicyName() string {
	return c.Global.String() + "-" + c.Local.String()
}
