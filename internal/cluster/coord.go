//ripslint:allow-file wallclock the coordinator measures a job's elapsed real time by design; every scheduling decision inside the job is a pure function of reported task counts
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/par"
	"rips/internal/sim"
	"rips/internal/topo"
)

// coordinate runs one job as its coordinator: recruit every ring
// member (itself included, dialed through the transport like anyone
// else), then drive the RIPS phase protocol — stop the world when a
// member drains, collect a load snapshot, hand it to the unchanged
// pure planner over the cluster's mirror topology, ship the planned
// moves as serialized batches, resume. A zero global total is a round
// boundary; after the last round the members' counters are summed into
// the Result.
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
	k := len(members)
	mirror := mirrorFor(cfg.Topology, k)
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

	c := &coordRun{
		n:       n,
		job:     n.jobSeq.Add(1),
		members: members,
		app:     a,
		mirror:  mirror,
		events:  make(chan coordEvent, 4*k),
		loads:   make([]int, k),
		seen:    make([]bool, k),
		start:   time.Now(),
	}
	defer c.closeAll()
	if lost := c.recruit(ctx, spec, cfgBytes); lost != -1 {
		return c.abandonOrTimeout(ctx, lost)
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
	loads   []int
	seen    []bool // members heard from in the collection under way
	start   time.Time

	res    Result
	phases int64
	round  int
}

// recruit dials every member and attaches it; returns the index of the
// first unreachable member, or -1. The coordinator reaches its own
// member session through the transport like any other — one code path,
// uniformly exercised.
func (c *coordRun) recruit(ctx context.Context, spec rips.JobSpec, cfgBytes []byte) int {
	c.peers = make([]*peer, len(c.members))
	for i, addr := range c.members {
		conn, err := c.n.opts.Transport.Dial(addr, c.n.opts.DialTimeout)
		if err != nil {
			return i
		}
		p := newPeer(conn, c.n.opts.HeartbeatInterval, c.n.opts.HeartbeatTimeout, nil)
		c.peers[i] = p
		att := attachMsg{Job: c.job, App: spec.App, Size: spec.Size, K: len(c.members), Member: i, Config: cfgBytes}
		if err := p.send(fAttach, att.encode()); err != nil {
			return i
		}
	}
	// Pump every peer into one merged event stream.
	for i, p := range c.peers {
		go func(i int, p *peer) {
			for {
				f, err := p.recv(ctx)
				select {
				case c.events <- coordEvent{i, f, err}:
				case <-p.closed:
					return
				}
				if err != nil {
					return
				}
			}
		}(i, p)
	}
	// Collect every member's attach acknowledgement and initial load.
	pending := len(c.members)
	for pending > 0 {
		ev, lost := c.next(ctx)
		if lost != -1 {
			return lost
		}
		m, err := decodeLoads(ev.f.payload)
		if ev.f.t != fAttachOK || err != nil {
			return ev.member
		}
		c.loads[ev.member] = m.Load
		pending--
	}
	return -1
}

// next blocks for one event; a member error (or context expiry) is
// reported as a lost member index, context expiry as the pseudo-index
// of the coordinator itself (handled by drive).
func (c *coordRun) next(ctx context.Context) (coordEvent, int) {
	select {
	case ev := <-c.events:
		if ev.err != nil {
			return ev, ev.member
		}
		return ev, -1
	case <-ctx.Done():
		return coordEvent{err: ctx.Err()}, -2
	}
}

// drive is the coordinator's main loop.
func (c *coordRun) drive(ctx context.Context) (Result, error) {
	// The members attached paused: balance their initial root
	// distribution before the first resume.
	if lost := c.planAndMove(ctx); lost != -1 {
		return c.abandonOrTimeout(ctx, lost)
	}
	for {
		ev, lost := c.next(ctx)
		if lost != -1 {
			return c.abandonOrTimeout(ctx, lost)
		}
		switch ev.f.t {
		case fDrained:
			if lost := c.phase(ctx); lost != -1 {
				return c.abandonOrTimeout(ctx, lost)
			}
			done, lost := c.boundary(ctx)
			if lost != -1 {
				return c.abandonOrTimeout(ctx, lost)
			}
			if done {
				return c.finish(ctx)
			}
		default:
			return c.protocolError(ev)
		}
	}
}

// phase stops the world: broadcast fPhase, collect one fLoads from
// every member. Drained frames racing the phase broadcast are expected
// and ignored. Returns a lost index or -1.
func (c *coordRun) phase(ctx context.Context) int {
	c.phases++
	if lost := c.broadcast(fPhase, encodeJob(c.job)); lost != -1 {
		return lost
	}
	return c.collectLoads(ctx)
}

// collectLoads gathers one fLoads per member into c.loads.
func (c *coordRun) collectLoads(ctx context.Context) int {
	clear(c.seen)
	pending := len(c.members)
	for pending > 0 {
		ev, lost := c.next(ctx)
		if lost != -1 {
			return lost
		}
		switch ev.f.t {
		case fDrained:
			continue
		case fLoads:
			m, err := decodeLoads(ev.f.payload)
			if err != nil || c.seen[ev.member] {
				return ev.member
			}
			c.seen[ev.member] = true
			c.loads[ev.member] = m.Load
			pending--
		default:
			return ev.member
		}
	}
	return -1
}

// boundary handles the all-queues-empty case: advance the round
// (restaging roots on the members) or report the job done.
func (c *coordRun) boundary(ctx context.Context) (done bool, lost int) {
	total := 0
	for _, l := range c.loads {
		total += l
	}
	if total > 0 {
		return false, c.planAndMove(ctx)
	}
	c.round++
	if c.round >= c.app.Rounds() {
		return true, -1
	}
	if lost := c.broadcast(fRound, roundMsg{Job: c.job, Round: c.round}.encode()); lost != -1 {
		return false, lost
	}
	if lost := c.collectLoads(ctx); lost != -1 {
		return false, lost
	}
	return false, c.planAndMove(ctx)
}

// planAndMove runs the pure planner over the current loads, ships each
// planned move as a relayed task batch, then resumes every member.
func (c *coordRun) planAndMove(ctx context.Context) int {
	total := 0
	for _, l := range c.loads {
		total += l
	}
	if total > 0 && !par.BalancedCanonical(c.loads, total) {
		plan, _, err := par.PlanLoads(c.mirror, c.loads)
		if err != nil {
			// A planner rejection means the coordinator built an
			// inconsistent mirror — abort the job, don't guess.
			c.res.Canceled = true
			return len(c.members) // out of range: reported as self-inflicted below
		}
		for _, mv := range plan.Moves {
			if lost := c.move(ctx, mv.From, mv.To, mv.Count); lost != -1 {
				return lost
			}
		}
	}
	return c.broadcast(fResume, encodeJob(c.job))
}

// move executes one planned transfer: fTake to the source, its fBatch
// relayed as fPut to the destination — the same bytes, counted but not
// decoded — and the destination's fPutOK closing the loop. Tasks
// therefore move exactly once and never silently.
func (c *coordRun) move(ctx context.Context, from, to, count int) int {
	if err := c.peers[from].send(fTake, takeMsg{Job: c.job, To: to, Count: count}.encode()); err != nil {
		return from
	}
	batch, lost := c.await(ctx, from, fBatch)
	if lost != -1 {
		return lost
	}
	moved, err := batchCount(batch)
	if err != nil {
		return from
	}
	if err := c.peers[to].send(fPut, batch); err != nil {
		return to
	}
	ack, lost := c.await(ctx, to, fPutOK)
	if lost != -1 {
		return lost
	}
	am, err := decodeLoads(ack)
	if err != nil {
		return to
	}
	c.loads[from] -= moved
	c.loads[to] = am.Load
	return -1
}

// await blocks for one frame of the wanted type from one member,
// ignoring stale fDrained frames from anyone.
func (c *coordRun) await(ctx context.Context, member int, want frameType) ([]byte, int) {
	for {
		ev, lost := c.next(ctx)
		if lost != -1 {
			return nil, lost
		}
		if ev.f.t == fDrained {
			continue
		}
		if ev.member != member || ev.f.t != want {
			return nil, ev.member
		}
		return ev.f.payload, -1
	}
}

// finish collects every member's counters and assembles the Result.
func (c *coordRun) finish(ctx context.Context) (Result, error) {
	if lost := c.broadcast(fFinish, encodeJob(c.job)); lost != -1 {
		return c.abandonOrTimeout(ctx, lost)
	}
	clear(c.seen)
	pending := len(c.members)
	for pending > 0 {
		ev, lost := c.next(ctx)
		if lost != -1 {
			// A member's session ends — and its conn closes — the
			// moment it sends its counters, so a death event from a
			// member already counted is the normal end of its session,
			// not a lost node.
			if lost >= 0 && lost < len(c.seen) && c.seen[lost] {
				continue
			}
			return c.abandonOrTimeout(ctx, lost)
		}
		if ev.f.t != fCounters {
			return c.protocolError(ev)
		}
		m, err := decodeCounters(ev.f.payload)
		if err != nil || c.seen[ev.member] {
			return c.abandonOrTimeout(ctx, ev.member)
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

// broadcast sends one frame to every member; returns the first failed
// index or -1.
func (c *coordRun) broadcast(t frameType, payload []byte) int {
	for i, p := range c.peers {
		if err := p.send(t, payload); err != nil {
			return i
		}
	}
	return -1
}

// abandonOrTimeout folds the two failure exits: a context expiry
// (timeout or submitter cancellation) or a lost member.
func (c *coordRun) abandonOrTimeout(ctx context.Context, lost int) (Result, error) {
	if ctx.Err() != nil {
		res, _ := c.abandon(-1)
		return res, ctx.Err()
	}
	return c.abandon(lost)
}

// abandon cancels the job on every reachable member and returns the
// partial, canceled Result. lost < 0 means no specific member died
// (context expiry); an in-range lost names the dead node in the typed
// error.
func (c *coordRun) abandon(lost int) (Result, error) {
	reason := "coordinator abandoned the job"
	if lost >= 0 && lost < len(c.members) {
		reason = fmt.Sprintf("node %s lost", c.members[lost])
	}
	payload := cancelMsg{Job: c.job, Reason: reason}.encode()
	for i, p := range c.peers {
		if p == nil || i == lost {
			continue
		}
		_ = p.send(fCancel, payload)
	}
	c.res.Workers = len(c.members)
	c.res.Phases = c.phases
	c.res.Wall = time.Since(c.start)
	c.res.Canceled = true
	if lost >= 0 && lost < len(c.members) {
		return c.res, &NodeLostError{Addr: c.members[lost]}
	}
	return c.res, fmt.Errorf("cluster: job abandoned")
}

// protocolError reports a member that broke the phase protocol.
func (c *coordRun) protocolError(ev coordEvent) (Result, error) {
	res, _ := c.abandon(ev.member)
	return res, fmt.Errorf("cluster: member %s sent unexpected %v frame", c.members[ev.member], ev.f.t)
}

// closeAll tears down every job connection.
func (c *coordRun) closeAll() {
	for _, p := range c.peers {
		if p != nil {
			p.close()
		}
	}
}
