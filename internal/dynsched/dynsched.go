// Package dynsched implements the three dynamic load-balancing
// baselines the paper compares RIPS against in Tables I and III:
// randomized allocation, the gradient model, and receiver-initiated
// diffusion (RID). All three share one asynchronous runtime — a
// task-execution loop in which scheduling decisions are individual,
// made from partial information, and interleaved with computation —
// which is precisely the structural contrast to RIPS's synchronous,
// global system phases.
//
// Global termination of each round is detected with Safra's
// token-ring algorithm (task messages counted, nodes coloured black on
// receipt); its messages are charged to system overhead like any other
// runtime traffic.
package dynsched

import (
	"errors"
	"fmt"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/sim"
	"rips/internal/task"
	"rips/internal/topo"
)

// Message tags.
const (
	TagTask    = iota // task bundle (counted by termination detection)
	TagToken          // Safra termination token
	TagTerm           // round-end broadcast from node 0
	TagAck            // round-end acknowledgement to node 0
	TagGo             // round-start broadcast (all counters are reset)
	TagLoad           // strategy load/proximity information
	TagRequest        // RID task request
)

// Counter names in Result.Sim.Counters.
const (
	CounterGenerated = "dyn.generated"
	CounterExecuted  = "dyn.executed"
	CounterNonlocal  = "dyn.nonlocal"
	CounterMigrated  = "dyn.migrated" // tasks sent between nodes (per hop)
)

// Strategy is one dynamic load-balancing policy. A fresh instance is
// created per node (via Config.Strategy), so implementations keep
// per-node state in their receiver.
type Strategy interface {
	// Name identifies the policy, e.g. "random".
	Name() string
	// Init is called once before the run starts.
	Init(c *Ctx)
	// Place decides where a newly generated task runs: enqueue it
	// locally or send it away via c.SendTasks.
	Place(c *Ctx, t task.Task)
	// OnMessage handles strategy-specific tags (TagLoad, TagRequest);
	// other tags are never passed in.
	OnMessage(c *Ctx, m sim.Message)
	// Poll runs after every task execution and on idle: the hook for
	// threshold checks, pushing surplus or requesting work.
	Poll(c *Ctx)
}

// Config describes a baseline run.
type Config struct {
	Topo      topo.Topology
	App       app.App
	Strategy  func() Strategy
	Latency   *sim.LatencyModel
	Seed      int64
	MaxEvents uint64
	// Cancel, when non-nil, aborts the run once the channel is closed;
	// the partial Result has Canceled set and conservation unchecked.
	Cancel <-chan struct{}
}

// Runtime bookkeeping charged as overhead on the node clocks, the same
// constants ripsrt charges.
const (
	perTask    = 2 * sim.Microsecond // packing one migrated task
	perEnqueue = sim.Microsecond     // bookkeeping for one generated task
)

func (c *Config) latency() sim.LatencyModel {
	if c.Latency != nil {
		return *c.Latency
	}
	return sim.DefaultLatency()
}

// Result of a baseline run; mirrors ripsrt.Result.
type Result struct {
	Sim                                     sim.Result
	Time                                    sim.Time
	Overhead, Idle                          sim.Time
	Generated, Executed, Nonlocal, Migrated int64
	// Canceled reports an abort via Config.Cancel; counters then cover
	// only the work done before the abort.
	Canceled bool
}

// Run executes the workload under the configured strategy.
func Run(cfg Config) (Result, error) {
	if cfg.Topo == nil || cfg.App == nil || cfg.Strategy == nil {
		return Result{}, fmt.Errorf("dynsched: Topo, App and Strategy are required")
	}
	sr, err := sim.Run(sim.Config{
		Topo:      cfg.Topo,
		Latency:   cfg.latency(),
		Seed:      cfg.Seed,
		MaxEvents: cfg.MaxEvents,
		Cancel:    cfg.Cancel,
	}, func(n *sim.Node) {
		c := &Ctx{N: n, cfg: &cfg, strat: cfg.Strategy()}
		c.run()
	})
	if err != nil && !errors.Is(err, sim.ErrCanceled) {
		return Result{}, err
	}
	res := Result{
		Sim:       sr,
		Time:      sr.End,
		Generated: sr.Counters[CounterGenerated],
		Executed:  sr.Counters[CounterExecuted],
		Nonlocal:  sr.Counters[CounterNonlocal],
		Migrated:  sr.Counters[CounterMigrated],
	}
	var oh, idle sim.Time
	for _, st := range sr.Nodes {
		oh += st.Overhead
		idle += st.Idle + (sr.End - st.Finish)
	}
	res.Overhead = oh / sim.Time(len(sr.Nodes))
	res.Idle = idle / sim.Time(len(sr.Nodes))
	if err != nil {
		// Canceled mid-run: tasks were abandoned by design, so the
		// executed==generated conservation check does not apply.
		res.Canceled = true
		return res, err
	}
	if res.Executed != res.Generated {
		return res, fmt.Errorf("dynsched: executed %d of %d generated tasks", res.Executed, res.Generated)
	}
	return res, nil
}

// token is Safra's termination token.
type token struct {
	count int64
	black bool
}

// Ctx is the per-node runtime context handed to strategies.
type Ctx struct {
	N     *sim.Node
	cfg   *Config
	strat Strategy
	Q     task.Queue
	seq   uint64

	// Safra termination state.
	counter       int64 // task messages sent - received
	black         bool
	tokenIn       bool  // we hold the token
	tokenVal      token // its value when held
	tokenOut      bool  // node 0: token is circulating
	round         int
	exitRequested bool
}

// Topo returns the machine interconnect.
func (c *Ctx) Topo() topo.Topology { return c.cfg.Topo }

// newID mints a node-unique task id.
func (c *Ctx) newID() uint64 {
	c.seq++
	return uint64(c.N.ID())<<40 | c.seq
}

// NewTask wraps an application spawn into a task originating here.
func (c *Ctx) NewTask(sp app.Spawn) task.Task {
	c.N.Count(CounterGenerated, 1)
	return task.Task{ID: c.newID(), Origin: c.N.ID(), Size: sp.Size, Data: sp.Payload()}
}

// Enqueue files a task for local execution.
func (c *Ctx) Enqueue(t task.Task) {
	c.N.Overhead(perEnqueue)
	c.Q.PushBack(t)
}

// SendTasks ships a bundle to another node (a task message in the
// termination-detection sense, even when empty — RID uses empty
// bundles as negative replies).
func (c *Ctx) SendTasks(to int, ts []task.Task) {
	if to == c.N.ID() {
		invariant.Violated("dynsched: SendTasks to self")
	}
	c.N.Overhead(perTask * sim.Time(len(ts)))
	c.N.Count(CounterMigrated, int64(len(ts)))
	c.counter++
	c.N.SendTag(to, TagTask, taskMsg{tasks: ts, load: c.Q.Len()}, sizeOfTasks(ts))
}

// taskMsg carries tasks plus the sender's queue length — free
// piggybacked load information every policy may use.
type taskMsg struct {
	tasks []task.Task
	load  int
}

func sizeOfTasks(ts []task.Task) int {
	s := 16
	for _, t := range ts {
		s += t.Size + 16
	}
	return s
}

// run is the node main loop.
func (c *Ctx) run() {
	n := c.N
	c.strat.Init(c)
	c.injectRoots(0)
	if n.ID() == 0 {
		c.tokenIn, c.tokenVal = true, token{}
	}
	for {
		// Drain everything pending.
		for {
			m, ok := n.TryRecv()
			if !ok {
				break
			}
			if c.handle(m) {
				return
			}
		}
		if tk, ok := c.Q.PopFront(); ok {
			c.execute(tk)
			c.strat.Poll(c)
			continue
		}
		// Passive: give the strategy a chance to pull work, move the
		// termination token along, then block.
		c.strat.Poll(c)
		c.passToken()
		if c.exitRequested {
			return
		}
		// The strategy or a new round may have produced work; only
		// block when the queue is still empty.
		if !c.Q.Empty() {
			continue
		}
		if c.handle(n.Recv()) {
			return
		}
	}
}

// injectRoots files this node's share of a round's root tasks through
// the strategy. Block-distributed apps start with each node owning a
// slice (the SPMD decomposition); others start entirely at node 0.
func (c *Ctx) injectRoots(round int) {
	roots := c.cfg.App.Roots(round)
	lo, hi := 0, len(roots)
	if app.RootsDistributed(c.cfg.App) {
		lo, hi = app.RootBlock(len(roots), c.N.N(), c.N.ID())
	} else if c.N.ID() != 0 {
		return
	}
	for _, sp := range roots[lo:hi] {
		c.strat.Place(c, c.NewTask(sp))
	}
}

// execute runs one task; children are placed by the strategy.
func (c *Ctx) execute(tk task.Task) {
	n := c.N
	if tk.Origin != n.ID() {
		n.Count(CounterNonlocal, 1)
	}
	n.Count(CounterExecuted, 1)
	var children []task.Task
	work := c.cfg.App.Execute(tk.Data, func(sp app.Spawn) {
		children = append(children, c.NewTask(sp))
	})
	n.Compute(work)
	for _, ch := range children {
		c.strat.Place(c, ch)
	}
}

// handle processes one message; true means the program should exit.
func (c *Ctx) handle(m sim.Message) bool {
	switch m.Tag {
	case TagTask:
		tm := m.Data.(taskMsg)
		c.counter--
		c.black = true
		for _, t := range tm.tasks {
			c.Enqueue(t)
		}
		c.strat.OnMessage(c, m) // lets policies read the piggybacked load
	case TagToken:
		c.tokenIn = true
		c.tokenVal = m.Data.(token)
	case TagTerm:
		return c.onTerm(m.Data.(termMsg))
	case TagGo:
		c.injectRoots(c.round)
	case TagLoad, TagRequest:
		c.strat.OnMessage(c, m)
	default:
		invariant.Violated("dynsched: unexpected tag %d", m.Tag)
	}
	return false
}

// passToken advances Safra's algorithm when this (passive) node holds
// the token. Node 0 initiates rounds and evaluates returns.
func (c *Ctx) passToken() {
	n := c.N
	if !c.tokenIn {
		// Node 0 launches a fresh probe whenever none is in flight.
		if n.ID() == 0 && !c.tokenOut {
			c.tokenOut = true
			c.black = false
			n.SendTag(c.ringNext(), TagToken, token{}, 16)
		}
		return
	}
	if n.ID() == 0 {
		c.tokenIn = false
		c.tokenOut = false
		t := c.tokenVal
		if !t.black && !c.black && t.count+c.counter == 0 {
			c.finishRound()
			if c.exitRequested {
				return
			}
			// A new round just started. Launch the next probe right
			// away: if none of the round's tasks ever message node 0,
			// this is the only way its termination can be detected.
		}
		// Start the next probe (after a failed one, immediately).
		c.tokenOut = true
		c.black = false
		n.SendTag(c.ringNext(), TagToken, token{}, 16)
		return
	}
	c.tokenIn = false
	t := c.tokenVal
	t.count += c.counter
	t.black = t.black || c.black
	c.black = false
	n.SendTag(c.ringNext(), TagToken, t, 16)
}

func (c *Ctx) ringNext() int { return (c.N.ID() + 1) % c.N.N() }

// termMsg ends a round; final means the whole computation is done.
type termMsg struct {
	round int
	final bool
}

// finishRound runs at node 0 once global termination of the current
// round is proven: broadcast the round end, collect acknowledgements
// (so every node has reset its counters before new tasks fly), then
// start the next round or shut down.
func (c *Ctx) finishRound() {
	n := c.N
	final := c.round+1 >= c.cfg.App.Rounds()
	for id := 1; id < n.N(); id++ {
		n.SendTag(id, TagTerm, termMsg{round: c.round, final: final}, 16)
	}
	for id := 1; id < n.N(); id++ {
		n.RecvTag(TagAck)
	}
	if final {
		c.exitRequested = true
		return
	}
	c.round++
	c.counter, c.black = 0, false
	// Every node has acknowledged (and reset its counters); release
	// them into the new round before injecting our own share.
	for id := 1; id < n.N(); id++ {
		n.SendTag(id, TagGo, nil, 8)
	}
	c.injectRoots(c.round)
}

// onTerm handles a round-end broadcast at a non-root node.
func (c *Ctx) onTerm(t termMsg) bool {
	c.counter, c.black = 0, false
	c.round = t.round + 1
	c.N.SendTag(0, TagAck, nil, 8)
	return t.final
}
