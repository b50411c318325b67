//ripslint:allow-file wallclock a member measures its real busy time by design and backs off its drain announcements in real time; which tasks it runs is decided solely by the coordinator's planner
package cluster

import (
	"net"
	"runtime"
	"time"

	"rips/internal/app"
	"rips/internal/sim"
	"rips/internal/task"
)

// memberSession serves one job on this node: an executor for the
// node's slice of the task pool, obeying the coordinator's phase
// protocol on the connection that recruited it. It runs entirely on
// one goroutine — the queue needs no lock because only this loop
// touches it, and the peer's reader keeps frames (and the heartbeat
// deadline) flowing while a task executes.
func (n *Node) memberSession(conn net.Conn, payload []byte) {
	att, err := decodeAttach(payload)
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
		return
	}
	a, err := n.opts.Resolver(att.App, att.Size)
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
		return
	}
	codec, ok := a.(app.PayloadCodec)
	if !ok {
		_ = writeFrame(conn, fError, encodeError("cluster: app tasks are not wire-serializable"))
		return
	}
	p := newPeer(conn, n.opts.HeartbeatInterval, n.opts.HeartbeatTimeout)
	defer p.close()
	m := &memberRun{n: n, p: p, job: att.Job, app: a, codec: codec, k: att.K, idx: att.Member}
	m.run()
}

type memberRun struct {
	n     *Node
	p     *peer
	job   uint64
	app   app.App
	codec app.PayloadCodec
	k     int // job width
	idx   int // this member's index
	q     task.Queue
	seq   uint64
	emit  func(app.Spawn) // m.spawn, bound once by run: no closure per task

	generated, executed, nonlocal, appResult int64
	vwork                                    sim.Time
	start                                    time.Time // anchor of the busy-time clock readings, set by run
	busy                                     time.Duration
	yielded                                  time.Duration // busy at the last yield
}

// yieldSlice is how long a member executes tasks between yields of
// its processor (see execute).
const yieldSlice = 100 * time.Microsecond

// spawn queues one task born on this member: a staged root, or a
// child emitted by a task it executes.
func (m *memberRun) spawn(sp app.Spawn) {
	m.q.PushBack(task.Task{ID: m.newID(), Origin: m.idx, Size: sp.Size, Data: sp.Payload()})
	m.generated++
}

// newID mints a task ID unique across the job: member index in the
// high bits, a local sequence below — the same packing the in-process
// runtimes use per worker.
func (m *memberRun) newID() uint64 {
	m.seq++
	return uint64(m.idx)<<40 | m.seq
}

// stage loads this member's share of a round's roots:
// block-distributed apps get their block, everything else starts on
// member 0 and lets the first system phase spread it.
func (m *memberRun) stage(round int) {
	roots := m.app.Roots(round)
	lo, hi := 0, len(roots)
	if app.RootsDistributed(m.app) {
		lo, hi = app.RootBlock(len(roots), m.k, m.idx)
	} else if m.idx != 0 {
		lo, hi = 0, 0
	}
	for _, sp := range roots[lo:hi] {
		m.spawn(sp)
	}
}

func (m *memberRun) run() {
	m.emit = m.spawn
	m.start = time.Now()
	m.stage(0)
	if m.p.send(fAttachOK, loadsMsg{Job: m.job, Load: m.q.Len()}.encode()) != nil {
		return
	}
	// Members attach paused: the coordinator balances the initial root
	// distribution before the first resume.
	if !m.pausedLoop() {
		return
	}
	idle := 0 // consecutive resumes that brought no work
	for {
		// Control frames first, so a phase request never waits behind
		// the whole queue.
		if f, ok := m.p.tryRecv(); ok {
			if !m.handle(f) {
				return
			}
			continue
		}
		t, ok := m.q.PopFront()
		if !ok {
			// Empty queue: tell the coordinator, after a backoff that
			// grows while resumes keep bringing nothing — an idle
			// member must not phase-storm the busy ones.
			if idle > 0 {
				if f, got, alive := m.idleWait(backoff(idle)); got {
					if !m.handle(f) {
						return
					}
					continue
				} else if !alive {
					return
				}
			}
			if m.p.send(fDrained, encodeJob(m.job)) != nil {
				return
			}
			f, err := m.p.recv(m.n.ctx)
			if err != nil {
				return
			}
			if !m.handle(f) {
				return
			}
			if m.q.Empty() {
				idle++
			} else {
				idle = 0
			}
			continue
		}
		idle = 0
		m.execute(t)
	}
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

// handle processes one frame while running; false means the session is
// over.
func (m *memberRun) handle(f frame) bool {
	switch f.t {
	case fPhase:
		return m.paused()
	case fCancel:
		return false
	default:
		_ = m.p.send(fError, encodeError("cluster: unexpected frame while running"))
		return false
	}
}

// paused is the stop-the-world window: report the load, then obey the
// coordinator — hand over tasks, install shipped batches, restage a
// new round's roots — until resumed or finished.
func (m *memberRun) paused() bool {
	if m.p.send(fLoads, loadsMsg{Job: m.job, Load: m.q.Len()}.encode()) != nil {
		return false
	}
	return m.pausedLoop()
}

func (m *memberRun) pausedLoop() bool {
	for {
		f, err := m.p.recv(m.n.ctx)
		if err != nil {
			return false
		}
		switch f.t {
		case fTake:
			tk, err := decodeTake(f.payload)
			if err != nil {
				return false
			}
			ts := m.q.TakeBack(tk.Count)
			wts, err := encodeTasks(m.codec, ts)
			if err != nil {
				_ = m.p.send(fError, encodeError(err.Error()))
				return false
			}
			if m.p.send(fBatch, batchMsg{Job: m.job, To: tk.To, Tasks: wts}.encode()) != nil {
				return false
			}
		case fPut:
			bm, err := decodeBatch(f.payload)
			if err != nil {
				return false
			}
			ts, err := decodeTasks(m.codec, bm.Tasks)
			if err != nil {
				_ = m.p.send(fError, encodeError(err.Error()))
				return false
			}
			m.q.PushAll(ts)
			if m.p.send(fPutOK, loadsMsg{Job: m.job, Load: m.q.Len()}.encode()) != nil {
				return false
			}
		case fRound:
			rd, err := decodeRound(f.payload)
			if err != nil {
				return false
			}
			m.stage(rd.Round)
			if m.p.send(fLoads, loadsMsg{Job: m.job, Load: m.q.Len()}.encode()) != nil {
				return false
			}
		case fPhase:
			// A duplicate phase request: re-report the load.
			if m.p.send(fLoads, loadsMsg{Job: m.job, Load: m.q.Len()}.encode()) != nil {
				return false
			}
		case fResume:
			return true
		case fFinish:
			_ = m.p.send(fCounters, countersMsg{
				Job:       m.job,
				Generated: m.generated,
				Executed:  m.executed,
				Nonlocal:  m.nonlocal,
				AppResult: m.appResult,
				Work:      int64(m.vwork),
				BusyNS:    int64(m.busy),
			}.encode())
			return false
		case fCancel:
			return false
		default:
			_ = m.p.send(fError, encodeError("cluster: unexpected frame while paused"))
			return false
		}
	}
}

// execute runs one task, spawning children into the local queue, and
// yields the processor once per yieldSlice of execution. The run
// loop's only channel operation is a nonblocking tryRecv, so on a
// single-P runtime (GOMAXPROCS=1, or a node oversubscribed with
// sessions) it would otherwise hold the processor for a full
// preemption quantum (~10ms) — long enough to starve this member's own
// peer reader and the coordinator, serializing the whole job onto
// whichever member got work first. The slice is counted in the busy
// time measured here anyway: microsecond tasks pay no scheduler call
// and no extra clock read each.
func (m *memberRun) execute(t task.Task) {
	began := time.Since(m.start) // monotonic readings only: time.Now would read the wall clock too
	w, res := app.ExecuteCount(m.app, t.Data, m.emit)
	m.busy += time.Since(m.start) - began
	m.executed++
	m.vwork += w
	m.appResult += res
	if t.Origin != m.idx {
		m.nonlocal++
	}
	if m.busy-m.yielded >= yieldSlice {
		m.yielded = m.busy
		runtime.Gosched()
	}
}
