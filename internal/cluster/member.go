package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"rips/internal/app"
	"rips/internal/par"
	"rips/internal/reuse"
)

// memberSession serves one job on this node. The executor is the phase
// engine of internal/par in member mode, one worker wide until a node
// leases its members their workers from a pool: it runs the node's share
// of the task pool at the engine's cost per task, and at every system
// phase hands its stopped world to exchange below, which is this file —
// the coordinator's protocol on the connection that recruited the member,
// the batches it trades with the other members on links of their own,
// and nothing that pops, executes or spawns a task.
func (n *Node) memberSession(conn net.Conn, payload []byte) {
	m, err := n.newMember(payload)
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
		return
	}
	m.serve(conn)
}

// linkSession serves a member link another member dialed: it finds the
// job's live session on this node and lends it the connection until
// either side ends.
func (n *Node) linkSession(conn net.Conn, payload []byte) {
	lk, err := decodeLink(payload)
	if err == nil {
		n.mu.Lock()
		m := n.runs[lk.Key]
		n.mu.Unlock()
		if m == nil {
			err = fmt.Errorf("cluster: no session of job %q on this node", lk.Key)
		} else {
			err = m.accept(conn, lk.From)
		}
	}
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
	}
}

// encodeBufs are the batch encode buffers no session is using. A job's
// first batch is half a deep frontier, hundreds of KB: a session that
// grew its buffer from nothing bought that again for every job.
var encodeBufs reuse.List[[]byte]

// errSessionOver ends a plan op on a session that is being torn down —
// canceled, or cut off from the coordinator or a trading partner. There
// is nobody to report it to.
var errSessionOver = errors.New("cluster: member session is over")

// memberRun is the protocol state of one member session.
type memberRun struct {
	n     *Node
	p     *peer
	job   uint64
	key   string   // the job's name on member links
	index int      // this member
	addrs []string // every member's address, by index
	codec app.PayloadCodec
	run   *par.MemberRun

	attached bool // the first exchange has reported ATTACH-OK
	finished bool // the coordinator said FINISH: the counters are due
	// idle counts this member's consecutive DRAINED announcements that
	// brought it no work; the next one waits backoff(idle) first. Only
	// the coordinator's answer to the member's own announcement advances
	// it: a phase some other member's drain caused — one that interrupts
	// the wait included — says nothing about how starved the job is, and
	// counting those too parks an idle member in its longest waits while
	// work is still being spread (measured: IDA* #1 in 13 phases instead
	// of 22, +17 % wall).
	idle int
	// batch is the encode buffer of every batch sent, kept at its
	// high-water mark — beyond the session: the first send takes it from
	// encodeBufs and close puts it back. give is appendTask bound once, so
	// giving tasks up allocates nothing. sending is the planned count of
	// the batch under construction, by which its first task sizes the
	// buffer.
	batch   []byte
	give    func(id uint64, origin int, payload any) error
	sending int

	// out[j] is the link this member dialed, the first time a plan had it
	// send to member j; only the exchange touches it while the run lasts.
	// from[j] is where the reader of the link member j dialed leaves j's
	// batches for the exchange to install when the plan says so. One slot
	// each: a batch that beats its PLAN here is held in it, and a second
	// one waits in its reader — and behind that in the connection — until
	// the first is taken.
	out  []*peer
	from []chan []byte
	// dead is closed by kill: the session cannot go on.
	dead chan struct{}
	once sync.Once

	mu   sync.Mutex
	in   []*peer // accepted links, closed with the session
	over bool    // the session has ended: accept no link
}

// newMember decodes an attach request, builds the member's engine run
// and enters the session in the node's table, where inbound member links
// look it up; nothing runs yet.
func (n *Node) newMember(payload []byte) (*memberRun, error) {
	att, err := decodeAttach(payload)
	if err != nil {
		return nil, err
	}
	a, err := n.opts.Resolver(att.App, att.Size)
	if err != nil {
		return nil, err
	}
	codec, ok := a.(app.PayloadCodec)
	if !ok {
		return nil, errors.New("cluster: app tasks are not wire-serializable")
	}
	m := &memberRun{
		n: n, job: att.Job, key: att.Key, index: att.Member, addrs: att.Members, codec: codec,
		out:  make([]*peer, att.K),
		from: make([]chan []byte, att.K),
		dead: make(chan struct{}),
	}
	for j := range m.from {
		m.from[j] = make(chan []byte, 1)
	}
	m.give = m.appendTask
	m.run, err = par.NewMemberRun(a, 1, par.Member{Index: att.Member, Width: att.K, Exchange: m.exchange})
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.runs[m.key] = m
	n.mu.Unlock()
	return m, nil
}

// serve runs the session on conn to its end. The peer's reader is what
// connects the coordinator to the running engine: a PHASE raises the
// engine's transfer request, a CANCEL or the death of the connection
// cancels the run, each the moment the frame is read — the workers poll
// two atomics between tasks, never the connection.
func (m *memberRun) serve(conn net.Conn) {
	o := m.n.opts
	m.p = newPeer(conn, o.HeartbeatInterval, o.HeartbeatTimeout, func(_ *peer, f frame) {
		switch f.t {
		case fPhase:
			m.run.RequestTransfer()
		case fCancel, fInvalid:
			m.kill()
		}
	})
	defer m.close()
	res := m.run.Run()
	if m.finished {
		_ = m.p.send(fCounters, countersMsg{
			Job:       m.job,
			Generated: res.Generated,
			Executed:  res.Executed,
			Nonlocal:  res.Nonlocal,
			AppResult: res.AppResult,
			Work:      int64(res.VirtualWork),
			BusyNS:    int64(res.Busy),
		}.encode())
	}
}

// kill ends the session from any goroutine: the run is canceled and an
// exchange waiting for a batch gives up. The coordinator's CANCEL does
// it, the death of the coordinator's connection, and the death of any
// member link — a partner that is gone takes the job with it just as
// surely, and the member that notices first must not wait for a batch
// that cannot come.
func (m *memberRun) kill() {
	m.once.Do(func() { close(m.dead) })
	m.run.Cancel()
}

// close ends the session: it leaves the node's table, and its
// connections — the coordinator's and every member link, dialed or
// accepted — close with it.
func (m *memberRun) close() {
	m.n.mu.Lock()
	if m.n.runs[m.key] == m {
		delete(m.n.runs, m.key)
	}
	m.n.mu.Unlock()
	m.mu.Lock()
	m.over = true
	in := m.in
	m.mu.Unlock()
	if m.batch != nil {
		buf := m.batch[:0]
		m.batch = nil
		encodeBufs.Put(&buf)
	}
	m.p.close()
	for _, p := range m.out {
		if p != nil {
			p.close()
		}
	}
	for _, p := range in {
		p.close()
	}
}

// accept takes over a link member `from` dialed, for as long as the link
// lasts. Its reader leaves each batch in from's slot; anything else on
// it, and its death, ends the session.
func (m *memberRun) accept(conn net.Conn, from int) error {
	if from < 0 || from >= len(m.addrs) || from == m.index {
		return fmt.Errorf("cluster: member link from member %d of a %d-member job to member %d", from, len(m.addrs), m.index)
	}
	m.mu.Lock()
	if m.over {
		m.mu.Unlock()
		return fmt.Errorf("cluster: the session of job %q has ended", m.key)
	}
	p := startPeer(conn, m.n.opts.HeartbeatInterval, m.n.opts.HeartbeatTimeout, func(p *peer, f frame) {
		if f.t != fBatch {
			m.kill()
			return
		}
		select {
		case m.from[from] <- f.payload:
		case <-p.closed:
		}
	}, nil)
	m.in = append(m.in, p)
	m.mu.Unlock()
	<-p.done
	return nil
}

// link returns the link to member j, dialing it the first time: one
// connection per job and direction, opened by the side that sends and
// introduced by a LINK frame the far node routes to the job's session
// there. The far side only ever sends heartbeats back, so any frame on
// it is a refusal and ends the session like the link's death.
func (m *memberRun) link(j int) (*peer, error) {
	if m.out[j] == nil {
		conn, err := m.n.opts.Transport.Dial(m.addrs[j], m.n.opts.DialTimeout)
		if err != nil {
			return nil, err
		}
		m.out[j] = startPeer(conn, m.n.opts.HeartbeatInterval, m.n.opts.HeartbeatTimeout, func(*peer, frame) { m.kill() }, nil)
		if err := m.out[j].send(fLink, linkMsg{Key: m.key, From: m.index}.encode()); err != nil {
			return nil, err
		}
	}
	return m.out[j], nil
}

// carryOut is the member's part of a phase's plan, op by op in plan
// order. A send takes the tasks off the stopped deques into the reused
// batch buffer and writes it to the receiver's link; a receive installs
// the next batch from that member, which may have been waiting in its
// slot since before the PLAN arrived, and holds it to the planned count.
func (m *memberRun) carryOut(x *par.Stopped, ops []planOp) error {
	for _, op := range ops {
		if op.Recv {
			var batch []byte
			select {
			case batch = <-m.from[op.Peer]:
			case <-m.dead:
				return errSessionOver
			}
			n, err := installBatch(x, m.codec, batch)
			if err != nil {
				return err
			}
			if n != op.Count {
				return fmt.Errorf("cluster: member %d sent a batch of %d tasks, the plan says %d", op.Peer, n, op.Count)
			}
			continue
		}
		link, err := m.link(op.Peer)
		if err != nil {
			m.kill()
			return errSessionOver
		}
		if m.batch == nil {
			if buf := encodeBufs.Get(); buf != nil {
				m.batch = *buf
			}
		}
		m.batch, m.sending = appendBatchHeader(m.batch[:0], m.job, op.Peer), op.Count
		taken, err := x.Take(op.Count, m.give)
		if err != nil {
			return err
		}
		if taken != op.Count {
			return fmt.Errorf("cluster: the plan has member %d send %d tasks, it holds %d", m.index, op.Count, taken)
		}
		setBatchCount(m.batch, taken)
		if link.send(fBatch, m.batch) != nil {
			m.kill()
			return errSessionOver
		}
	}
	return nil
}

// refuse ends the session over something the coordinator must hear: a
// frame, plan or batch this member cannot accept. It then waits for the
// coordinator's answer — the CANCEL every member gets, or the
// connection's end — before the session's links close, so that the
// complaint is what the coordinator sees and not the partners that fall
// with this member.
func (m *memberRun) refuse(err error) bool {
	if errors.Is(err, errSessionOver) || m.p.send(fError, encodeError(err.Error())) != nil {
		return false
	}
	for {
		if f, err := m.p.recv(m.n.ctx); err != nil || f.t == fCancel {
			return false
		}
	}
}

// exchange is the member's system phase, called by the engine's phase
// leader with the world stopped (par.Member.Exchange). It announces what
// brought the member here, then obeys the coordinator until it has
// carried out its part of the phase's plan.
func (m *memberRun) exchange(x *par.Stopped) bool {
	var first frame
	have, announced := false, false
	switch {
	case !m.attached:
		// Members attach paused: the coordinator balances the initial
		// root distribution before the first resume.
		m.attached = true
		if m.report(fAttachOK, x) != nil {
			return false
		}
	case x.TransferPending():
		// Stopped by the coordinator: its PHASE is in the inbox.
	case x.Load() > 0:
		// The workers met at the barrier on a stale drained count (see
		// par's detector); there is nothing to announce.
		return true
	default:
		// Drained. Tell the coordinator, after a backoff that grows while
		// announcements keep bringing nothing — an idle member must not
		// phase-storm the busy ones. A frame that arrives first is served
		// instead, and the announcement waits for the next exchange.
		if m.idle > 0 {
			var alive bool
			if first, have, alive = m.idleWait(backoff(m.idle)); !alive {
				return false
			}
		}
		if !have {
			if m.p.send(fDrained, encodeJob(m.job)) != nil {
				return false
			}
			announced = true
		}
	}
	if !m.paused(x, first, have) {
		return false
	}
	switch {
	case x.Load() > 0:
		m.idle = 0
	case announced:
		m.idle++
	}
	return true
}

// backoff is the idle member's wait before re-announcing an empty
// queue: 1ms doubling to a 50ms cap.
func backoff(idle int) time.Duration {
	d := time.Millisecond << (idle - 1)
	if d > 50*time.Millisecond || d <= 0 {
		d = 50 * time.Millisecond
	}
	return d
}

// idleWait blocks for one frame or the backoff duration, whichever
// comes first. Returns (frame, frameArrived, connAlive).
func (m *memberRun) idleWait(d time.Duration) (frame, bool, bool) {
	timer := time.NewTimer(d) //ripslint:allow sleep the drain-announcement backoff throttles phase frequency; task placement stays the planner's alone
	defer timer.Stop()
	select {
	case f := <-m.p.inbox:
		return f, true, true
	case <-m.p.done:
		return frame{}, false, false
	case <-m.n.ctx.Done():
		return frame{}, false, false
	case <-timer.C:
		return frame{}, false, true
	}
}

// report sends the member's load in a frame of the given type.
func (m *memberRun) report(t frameType, x *par.Stopped) error {
	return m.p.send(t, loadsMsg{Job: m.job, Load: x.Load()}.encode())
}

// paused is the stop-the-world window: obey the coordinator — report the
// load, restage a new round's roots — until its PLAN, carry that out, and
// resume (true), or be told to stop. The member resumes itself after its
// last op; a PHASE that is already behind the PLAN is answered by the
// exchange it causes, so never with an op outstanding. f, when have is
// set, is a frame already received.
func (m *memberRun) paused(x *par.Stopped, f frame, have bool) bool {
	for {
		if !have {
			var err error
			if f, err = m.p.recv(m.n.ctx); err != nil {
				return false
			}
		}
		have = false
		switch f.t {
		case fPhase:
			// The stop-the-world request, answered here whether it is what
			// stopped the member or found it stopped already.
			x.AckTransfer()
			if m.report(fLoads, x) != nil {
				return false
			}
		case fPlan:
			pl, err := decodePlan(f.payload, len(m.addrs), m.index)
			if err == nil {
				err = m.carryOut(x, pl.Ops)
			}
			if err != nil {
				return m.refuse(err)
			}
			return true
		case fRound:
			rd, err := decodeRound(f.payload)
			if err != nil {
				return m.refuse(err)
			}
			x.StageRound(rd.Round)
			if m.report(fLoads, x) != nil {
				return false
			}
		case fFinish:
			m.finished = true
			return false
		case fCancel:
			return false
		default:
			return m.refuse(fmt.Errorf("cluster: unexpected %v frame in a member session", f.t))
		}
	}
}

// appendTask appends one task the engine gives up to the batch under
// construction (memberRun.give). An app's payloads are one size, or
// nearly: the first task of a batch reserves room for all of it, so the
// job's first and largest batch — half a deep frontier, hundreds of KB
// into a buffer that starts empty — is not doubled into.
func (m *memberRun) appendTask(id uint64, origin int, payload any) (err error) {
	first := len(m.batch) == batchHeaderSize
	m.batch, err = appendBatchTask(m.batch, m.codec, id, origin, payload)
	if first && err == nil {
		m.batch = slices.Grow(m.batch, (m.sending-1)*(len(m.batch)-batchHeaderSize))
	}
	return err
}
