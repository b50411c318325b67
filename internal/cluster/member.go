package cluster

import (
	"errors"
	"net"
	"time"

	"rips/internal/app"
	"rips/internal/par"
)

// memberSession serves one job on this node. The executor is the phase
// engine of internal/par in member mode, one worker wide until a node
// leases its members their workers from a pool: it runs the node's share
// of the task pool at the engine's cost per task, and at every system
// phase hands its stopped world to exchange below, which is this file —
// the coordinator's protocol on the connection that recruited the member,
// and nothing that pops, executes or spawns a task.
func (n *Node) memberSession(conn net.Conn, payload []byte) {
	m, err := n.newMember(payload)
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
		return
	}
	m.serve(conn)
}

// memberRun is the protocol state of one member session.
type memberRun struct {
	n     *Node
	p     *peer
	job   uint64
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
	// batch is the encode buffer of every TAKE, kept at its high-water
	// mark; give is appendTask bound once, so serving a TAKE allocates
	// nothing.
	batch []byte
	give  func(id uint64, origin int, payload any) error
}

// newMember decodes an attach request and builds the member's engine
// run; nothing runs yet.
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
	m := &memberRun{n: n, job: att.Job, codec: codec}
	m.give = m.appendTask
	m.run, err = par.NewMemberRun(a, 1, par.Member{Index: att.Member, Width: att.K, Exchange: m.exchange})
	return m, err
}

// serve runs the session on conn to its end. The peer's reader is what
// connects the coordinator to the running engine: a PHASE raises the
// engine's transfer request, a CANCEL or the death of the connection
// cancels the run, each the moment the frame is read — the workers poll
// two atomics between tasks, never the connection.
func (m *memberRun) serve(conn net.Conn) {
	m.p = newPeer(conn, m.n.opts.HeartbeatInterval, m.n.opts.HeartbeatTimeout, func(t frameType) {
		switch t {
		case fPhase:
			m.run.RequestTransfer()
		case fCancel, fInvalid:
			m.run.Cancel()
		}
	})
	defer m.p.close()
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

// exchange is the member's system phase, called by the engine's phase
// leader with the world stopped (par.Member.Exchange). It announces what
// brought the member here, then obeys the coordinator until RESUME.
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
// load, hand over tasks, install shipped batches, restage a new round's
// roots — until resumed (true) or told to stop. f, when have is set, is
// a frame already received.
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
		case fTake:
			tk, err := decodeTake(f.payload)
			if err != nil {
				return false
			}
			m.batch = appendBatchHeader(m.batch[:0], m.job, tk.To)
			taken, err := x.Take(tk.Count, m.give)
			if err != nil {
				_ = m.p.send(fError, encodeError(err.Error()))
				return false
			}
			setBatchCount(m.batch, taken)
			if m.p.send(fBatch, m.batch) != nil {
				return false
			}
		case fPut:
			if err := installBatch(x, m.codec, f.payload); err != nil {
				_ = m.p.send(fError, encodeError(err.Error()))
				return false
			}
			if m.report(fPutOK, x) != nil {
				return false
			}
		case fRound:
			rd, err := decodeRound(f.payload)
			if err != nil {
				return false
			}
			x.StageRound(rd.Round)
			if m.report(fLoads, x) != nil {
				return false
			}
		case fResume:
			return true
		case fFinish:
			m.finished = true
			return false
		case fCancel:
			return false
		default:
			_ = m.p.send(fError, encodeError("cluster: unexpected frame in a member session"))
			return false
		}
	}
}

// appendTask appends one task the engine gives up to the batch under
// construction (memberRun.give).
func (m *memberRun) appendTask(id uint64, origin int, payload any) (err error) {
	m.batch, err = appendBatchTask(m.batch, m.codec, id, origin, payload)
	return err
}
