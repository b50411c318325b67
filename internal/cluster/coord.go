//ripslint:allow-file wallclock the coordinator measures a job's elapsed real time by design; every scheduling decision inside the job is a pure function of reported task counts
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/par"
	"rips/internal/sim"
	"rips/internal/topo"
)

// coordinate runs one job as its coordinator: recruit every ring
// member (itself included, dialed through the transport like anyone
// else), then drive the RIPS phase protocol — when a member drains, stop
// the others, collect a load snapshot, hand it to the unchanged pure
// planner over the cluster's mirror topology, and tell every member its
// part of the plan. From there the phase is the members' own: donors
// ship batches straight to receivers and everyone resumes itself; the
// coordinator is back in its event loop and never sees a task. A zero
// global total is a round boundary; after the last round the members'
// counters are summed into the Result.
func (n *Node) coordinate(ctx context.Context, spec rips.JobSpec) (Result, error) {
	if spec.Config.Backend != "" && spec.Config.Backend != "cluster" {
		return Result{}, fmt.Errorf("cluster: job asks for backend %q; a cluster node runs cluster-backend jobs only", spec.Config.Backend)
	}
	cfg, err := spec.Config.Decode()
	if err != nil {
		return Result{}, err
	}
	a, err := n.opts.Resolver(spec.App, spec.Size)
	if err != nil {
		return Result{}, err
	}
	if !app.WireSerializable(a) {
		return Result{}, fmt.Errorf("cluster: app %q tasks cannot cross a process boundary (no PayloadCodec)", spec.App)
	}
	members := n.Members()
	cfgBytes, err := json.Marshal(spec.Config)
	if err != nil {
		return Result{}, err
	}
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	n.addJob(1)
	defer n.addJob(-1)

	c := newCoordRun(n, n.jobSeq.Add(1), members, a, mirrorFor(cfg.Topology, len(members)))
	defer c.closeAll()
	if err := c.recruit(ctx, spec, cfgBytes); err != nil {
		return c.abandon(ctx, err)
	}
	return c.drive(ctx)
}

// mirrorFor builds the k-node cluster mirror of the job's configured
// topology family — the same construction the hybrid backend uses for
// its affinity domains, with one "domain" per process. A hypercube
// family falls back to the mesh chain when the cluster width is not a
// power of two, because a planner topology must have exactly one node
// per member.
func mirrorFor(topology string, k int) topo.Topology {
	var machine topo.Topology
	switch topology {
	case "tree":
		machine = topo.NewTree(1)
	case "hypercube":
		if k&(k-1) == 0 {
			machine = topo.NewHypercube(0)
		} else {
			machine = topo.NewMesh(1, 1)
		}
	default:
		machine = topo.NewMesh(1, 1)
	}
	return par.MirrorTopology(machine, k)
}

// coordEvent is one member's frame (or death) in the merged stream the
// coordinator consumes.
type coordEvent struct {
	member int
	f      frame
	err    error
}

type coordRun struct {
	n       *Node
	job     uint64
	members []string
	app     app.App
	mirror  topo.Topology
	peers   []*peer
	events  chan coordEvent
	loads   []int      // the snapshot of the collection last completed
	seen    []bool     // members heard from in the collection under way
	ops     [][]planOp // each member's part of the plan being written
	start   time.Time

	res    Result
	phases int64
	round  int
}

func newCoordRun(n *Node, job uint64, members []string, a app.App, mirror topo.Topology) *coordRun {
	k := len(members)
	return &coordRun{
		n:       n,
		job:     job,
		members: members,
		app:     a,
		mirror:  mirror,
		peers:   make([]*peer, k),
		// A member has at most four events in flight — a stale DRAINED, a
		// LOADS, an ERROR and its death — so no reader ever waits here for
		// the coordinator to catch up.
		events: make(chan coordEvent, 4*k),
		loads:  make([]int, k),
		seen:   make([]bool, k),
		ops:    make([][]planOp, k),
		start:  time.Now(),
	}
}

// recruit dials every member and attaches it, then collects the
// attach acknowledgements. The coordinator reaches its own member
// session through the transport like any other — one code path,
// uniformly exercised.
func (c *coordRun) recruit(ctx context.Context, spec rips.JobSpec, cfgBytes []byte) error {
	// The job's name on member links: coordinators each number their own
	// jobs, the address makes the key unique across them.
	key := fmt.Sprintf("%s/%d", c.n.addr, c.job)
	for i, addr := range c.members {
		conn, err := c.n.opts.Transport.Dial(addr, c.n.opts.DialTimeout)
		if err != nil {
			return &NodeLostError{Addr: addr}
		}
		c.join(i, conn)
		att := attachMsg{Job: c.job, App: spec.App, Size: spec.Size, K: len(c.members), Member: i, Config: cfgBytes, Key: key, Members: c.members}
		if err := c.peers[i].send(fAttach, att.encode()); err != nil {
			return &NodeLostError{Addr: addr}
		}
	}
	return c.collect(ctx, fAttachOK)
}

// join makes conn the coordinator's connection to member i. The peer's
// reader delivers straight into the merged event stream: every frame,
// then the connection's death.
func (c *coordRun) join(i int, conn net.Conn) {
	c.peers[i] = startPeer(conn, c.n.opts.HeartbeatInterval, c.n.opts.HeartbeatTimeout, func(p *peer, f frame) {
		ev := coordEvent{member: i, f: f}
		if f.t == fInvalid {
			ev.err = p.err
		}
		select {
		case c.events <- ev:
		case <-p.closed:
		}
	}, nil)
}

// next blocks for one event. A member's death is a *NodeLostError; an
// ERROR frame is a live member reporting why it cannot go on — an app
// its node does not know, a batch it could not install, a plan it could
// not follow — and is surfaced as that, not as a lost node.
func (c *coordRun) next(ctx context.Context) (coordEvent, error) {
	select {
	case ev := <-c.events:
		switch {
		case ev.err != nil:
			return ev, &NodeLostError{Addr: c.members[ev.member]}
		case ev.f.t == fError:
			msg, err := decodeError(ev.f.payload)
			if err != nil {
				msg = err.Error()
			}
			return ev, fmt.Errorf("cluster: member %s: %s", c.members[ev.member], msg)
		}
		return ev, nil
	case <-ctx.Done():
		return coordEvent{}, ctx.Err()
	}
}

// drive is the coordinator's main loop.
func (c *coordRun) drive(ctx context.Context) (Result, error) {
	// The members attached paused: balance their initial root
	// distribution before the first resume.
	if err := c.plan(); err != nil {
		return c.abandon(ctx, err)
	}
	for {
		ev, err := c.next(ctx)
		if err != nil {
			return c.abandon(ctx, err)
		}
		if ev.f.t != fDrained {
			return c.abandon(ctx, c.unexpected(ev))
		}
		if err := c.phase(ctx, ev.member); err != nil {
			return c.abandon(ctx, err)
		}
		done, err := c.boundary(ctx)
		if err != nil {
			return c.abandon(ctx, err)
		}
		if done {
			return c.finish(ctx)
		}
	}
}

// phase stops the world for the member that announced it had drained.
// Its DRAINED is its load report — zero, or it would not have sent it —
// and it is stopped already, so PHASE goes to the others only and one
// LOADS comes back from each.
func (c *coordRun) phase(ctx context.Context, announcer int) error {
	c.phases++
	clear(c.seen)
	c.seen[announcer] = true
	c.loads[announcer] = 0
	payload := encodeJob(c.job)
	for i, p := range c.peers {
		if i == announcer {
			continue
		}
		if err := p.send(fPhase, payload); err != nil {
			return &NodeLostError{Addr: c.members[i]}
		}
	}
	return c.collect(ctx, fLoads)
}

// collect gathers one load report of the given type into c.loads from
// every member not yet marked seen. A DRAINED that raced the phase
// broadcast is expected and ignored: its sender answers the PHASE too.
func (c *coordRun) collect(ctx context.Context, want frameType) error {
	pending := 0
	for _, seen := range c.seen {
		if !seen {
			pending++
		}
	}
	for pending > 0 {
		ev, err := c.next(ctx)
		if err != nil {
			return err
		}
		if ev.f.t == fDrained {
			continue
		}
		m, err := decodeLoads(ev.f.payload)
		if ev.f.t != want || err != nil || c.seen[ev.member] {
			return c.unexpected(ev)
		}
		c.seen[ev.member] = true
		c.loads[ev.member] = m.Load
		pending--
	}
	return nil
}

// boundary handles the all-queues-empty case: advance the round
// (restaging roots on the members) or report the job done.
func (c *coordRun) boundary(ctx context.Context) (done bool, err error) {
	total := 0
	for _, l := range c.loads {
		total += l
	}
	if total > 0 {
		return false, c.plan()
	}
	c.round++
	if c.round >= c.app.Rounds() {
		return true, nil
	}
	if err := c.broadcast(fRound, roundMsg{Job: c.job, Round: c.round}.encode()); err != nil {
		return false, err
	}
	clear(c.seen)
	if err := c.collect(ctx, fLoads); err != nil {
		return false, err
	}
	return false, c.plan()
}

// planOps runs the pure planner over a load snapshot and deals the moves
// out, in plan order, to the members they involve: ops[i] is what member
// i sends and receives. Plan order is one global order and every move in
// it can be served from what its source holds once the earlier moves are
// done (the engine applies the same plans sequentially), so a member
// that forwards — receives from one neighbour, sends to the other —
// waits only on ops that precede its own, and the members cannot
// deadlock whatever the interleaving.
func planOps(mirror topo.Topology, loads []int, ops [][]planOp) error {
	for i := range ops {
		ops[i] = ops[i][:0]
	}
	total := 0
	for _, l := range loads {
		total += l
	}
	if total == 0 || par.BalancedCanonical(loads, total) {
		return nil
	}
	plan, _, err := par.PlanLoads(mirror, loads)
	if err != nil {
		// A planner rejection means the coordinator built an inconsistent
		// mirror — abort the job, don't guess.
		return fmt.Errorf("cluster: planner rejected loads %v: %w", loads, err)
	}
	for _, mv := range plan.Moves {
		ops[mv.From] = append(ops[mv.From], planOp{Peer: mv.To, Count: mv.Count})
		ops[mv.To] = append(ops[mv.To], planOp{Recv: true, Peer: mv.From, Count: mv.Count})
	}
	return nil
}

// plan ends a system phase: every member is written its part of the
// plan — an empty part is a bare resume — and nothing is awaited. The
// members carry the plan out between themselves and resume on their own;
// the next thing the coordinator hears of them is a DRAINED, or a
// failure.
func (c *coordRun) plan() error {
	if err := planOps(c.mirror, c.loads, c.ops); err != nil {
		return err
	}
	for i, p := range c.peers {
		if err := p.send(fPlan, planMsg{Job: c.job, Ops: c.ops[i]}.encode()); err != nil {
			return &NodeLostError{Addr: c.members[i]}
		}
	}
	return nil
}

// finish collects every member's counters and assembles the Result.
func (c *coordRun) finish(ctx context.Context) (Result, error) {
	if err := c.broadcast(fFinish, encodeJob(c.job)); err != nil {
		return c.abandon(ctx, err)
	}
	clear(c.seen)
	pending := len(c.members)
	for pending > 0 {
		ev, err := c.next(ctx)
		if err != nil {
			// A member's session ends — and its conn closes — the
			// moment it sends its counters, so a death event from a
			// member already counted is the normal end of its session,
			// not a lost node.
			if ev.err != nil && c.seen[ev.member] {
				continue
			}
			return c.abandon(ctx, err)
		}
		m, err := decodeCounters(ev.f.payload)
		if ev.f.t != fCounters || err != nil || c.seen[ev.member] {
			return c.abandon(ctx, c.unexpected(ev))
		}
		c.seen[ev.member] = true
		c.res.Generated += m.Generated
		c.res.Executed += m.Executed
		c.res.Nonlocal += m.Nonlocal
		c.res.AppResult += m.AppResult
		c.res.VirtualWork += sim.Time(m.Work)
		c.res.Busy += time.Duration(m.BusyNS)
		pending--
	}
	c.res.Workers = len(c.members)
	c.res.Phases = c.phases
	c.res.Wall = time.Since(c.start)
	return c.res, nil
}

// broadcast sends one frame to every member.
func (c *coordRun) broadcast(t frameType, payload []byte) error {
	for i, p := range c.peers {
		if err := p.send(t, payload); err != nil {
			return &NodeLostError{Addr: c.members[i]}
		}
	}
	return nil
}

// abandon is the one failure exit: it cancels the job on every member
// still reachable and returns the partial, canceled Result with the
// reason — the context's error when that is what ended the job (timeout
// or submitter cancellation), else the error handed in: a
// *NodeLostError for a connection that died or a heartbeat that
// expired, and a member's own complaint, a planner rejection or a
// protocol violation as themselves.
func (c *coordRun) abandon(ctx context.Context, err error) (Result, error) {
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	reason, gone := "coordinator abandoned the job", ""
	var lost *NodeLostError
	if errors.As(err, &lost) {
		reason, gone = fmt.Sprintf("node %s lost", lost.Addr), lost.Addr
	}
	payload := cancelMsg{Job: c.job, Reason: reason}.encode()
	for i, p := range c.peers {
		if p != nil && c.members[i] != gone {
			_ = p.send(fCancel, payload) // a member that cannot be told is found out by its own heartbeats
		}
	}
	c.res.Workers = len(c.members)
	c.res.Phases = c.phases
	c.res.Wall = time.Since(c.start)
	c.res.Canceled = true
	return c.res, err
}

// unexpected reports a member that broke the phase protocol.
func (c *coordRun) unexpected(ev coordEvent) error {
	return fmt.Errorf("cluster: member %s sent unexpected %v frame", c.members[ev.member], ev.f.t)
}

// closeAll tears down every job connection.
func (c *coordRun) closeAll() {
	for _, p := range c.peers {
		if p != nil {
			p.close()
		}
	}
}
