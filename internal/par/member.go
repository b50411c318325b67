//ripslint:allow-file wallclock the real-parallel backend measures actual elapsed time by design; which tasks a member holds is decided by the exchange, never by the clock

package par

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rips/internal/app"
	"rips/internal/sched"
	"rips/internal/topo"
)

// Member mode runs the engine as one member of a job that spans several
// processes. The member's workers form a single stealing domain (alone,
// a worker pops its oldest task and exports its newest, like a RIPS
// worker), and nothing is planned inside the run: at every system phase
// the leader hands the stopped world to Member.Exchange, which reports
// the load to whoever coordinates the members and serves their answer —
// give tasks up, take tasks in, stage the next round's roots, resume,
// stop. The world stops when every worker has drained, as a Steal run's
// does, or when the owner of the wire asks for it through
// MemberRun.RequestTransfer because another member drained.
//
// Tasks cross the seam without being boxed. Take visits the nodes it
// removes, payload in place, and retires them to the workers' free
// lists; Stage draws a node from those lists and hands out its inline
// words for a decoder to fill:
//
//	deque -> wire: Take -> free list
//	wire -> deque: free list -> Stage -> Commit -> deque

// yieldSlice is how long a member's worker executes tasks between yields
// of its processor. A member shares its process with the goroutines that
// feed it — the reader of its connection above all, which is where a
// transfer request comes from — and on a single-P runtime (GOMAXPROCS=1,
// or a node oversubscribed with sessions) a worker that never blocks
// holds the processor for a whole preemption quantum (~10 ms): long
// enough to serialize a job onto whichever member got work first. The
// slice is counted in the busy time execute measures anyway, so
// microsecond tasks pay no scheduler call and no clock read each.
const yieldSlice = 100 * time.Microsecond

// Member places a member-mode run in its job.
type Member struct {
	// Index is this member's position among the job's Width members. It
	// selects the member's share of every round's roots, is the origin
	// its tasks carry — Result.Nonlocal counts tasks executed on another
	// member than they were born on — and is part of every task id.
	Index, Width int
	// Exchange serves one system phase. It is called by the phase leader
	// with the world stopped — every worker of the member parked in the
	// epoch barrier — the first time before any task has run, so that the
	// members can balance the roots. It may block for as long as the
	// other members take, and returns whether the run resumes; false ends
	// it. The Stopped it receives is valid until it returns.
	Exchange func(*Stopped) (resume bool)
}

// MemberRun is one member-mode run. RequestTransfer and Cancel may be
// called from any goroutine, before, during and after Run.
type MemberRun struct{ r *engineRun }

// NewMemberRun prepares a run of a's share of the job on the given
// number of workers.
func NewMemberRun(a app.App, workers int, m Member) (*MemberRun, error) {
	switch {
	case a == nil:
		return nil, fmt.Errorf("par: member app is nil")
	case workers < 1:
		return nil, fmt.Errorf("par: member needs at least one worker, not %d", workers)
	case m.Width < 1 || m.Index < 0 || m.Index >= m.Width:
		return nil, fmt.Errorf("par: member %d of %d", m.Index, m.Width)
	case m.Exchange == nil:
		return nil, fmt.Errorf("par: member has no exchange")
	}
	return &MemberRun{newEngineRun(&Config{Topo: topo.NewMesh(1, workers), App: a, member: &m})}, nil
}

// Run stages the first round's share of the roots and runs the workers
// until an exchange ends the run or it is canceled (Result.Canceled).
// The Result counts this member's part of the job only: tasks move
// between members, so Generated and Executed need not agree.
func (m *MemberRun) Run() Result {
	res, _ := m.r.run(goDriver{}) // only a planner sets the run's error, and a member has none
	return res
}

// RequestTransfer asks the workers to stop for an exchange after the
// task each has in hand, whatever user phase they are in: it holds the
// detector's request word at its maximum until the request is answered.
// Every request must be answered by one Stopped.AckTransfer, in the
// exchange it caused or a later one.
func (m *MemberRun) RequestTransfer() {
	m.r.xch.raised.Add(1)
	m.r.det.req.Store(math.MaxInt64)
}

// Cancel aborts the run: the workers stop after the task in hand and no
// further exchange is called. It does not interrupt an exchange in
// progress; whoever cancels unblocks that too.
func (m *MemberRun) Cancel() { m.r.cancel.Store(true) }

// exchangePhase is a member's system phase: the exchange, then the
// request word settled for the user phase that follows, which begins
// unrequested unless a RequestTransfer is still unanswered. The count is
// read after the reset, so a request racing it either is seen here or
// stores its maximum after the reset; it cannot be lost.
func (r *engineRun) exchangePhase() {
	r.phases++
	//ripslint:allow hotpath the exchange is the member's system phase and blocks on the other members by design: a socket round trip per frame, owned by the caller; what a member guarantees is the user phase (userPhase, execute and emit are proven as everywhere else)
	if !r.member.Exchange(&r.xch) {
		r.done = true
	}
	r.det.req.Store(r.phases - 2) // the user phase about to start is phases-1
	if r.xch.TransferPending() {
		r.det.req.Store(math.MaxInt64)
	}
	r.det.update(0, 1)
	r.sysTime += time.Since(r.phaseStart)
}

// Stopped is the stopped world of a member, as its exchange sees it.
type Stopped struct {
	r      *engineRun
	staged int // nodes Stage has put in the run's scratch since the last Commit
	// raised counts the RequestTransfers made and acked those answered
	// (leader-written, world stopped). Counting — not a flag the leader
	// clears — is what keeps a request that arrives while the leader is
	// leaving an exchange from being wiped with the ones that exchange
	// served. They live here and not in the detector, which stays the one
	// cache line it is for every other run.
	raised atomic.Int64
	acked  int64
}

// Load is the number of tasks in the member's deques.
func (x *Stopped) Load() int {
	n := 0
	for _, w := range x.r.workers {
		n += int(w.d.size())
	}
	return n
}

// TransferPending reports whether a RequestTransfer is unanswered: the
// world was stopped, or is about to be asked to stop again, from outside.
func (x *Stopped) TransferPending() bool { return x.raised.Load() != x.acked }

// AckTransfer answers one RequestTransfer.
func (x *Stopped) AckTransfer() { x.acked++ }

// Take removes up to n tasks from the end of the deques their owners do
// not execute from (takeMove), calls visit for each in deque order with
// its id, origin and payload — Spawn.Data, or a pointer to the node's
// inline words, valid during the call — and retires the nodes to the
// workers' free lists, an even share each. It returns how many tasks it
// removed; after an error from visit the rest are dropped, payloads let
// go of, and the run is not to be resumed.
func (x *Stopped) Take(n int, visit func(id uint64, origin int, payload any) error) (int, error) {
	r := x.r
	seg := r.takeMove(sched.Move{Count: min(n, x.Load())})
	defer clear(seg)
	for i, nd := range seg {
		payload := nd.data
		if payload == nil {
			payload = &nd.w
		}
		if err := visit(nd.id, nd.origin, payload); err != nil {
			for _, nd := range seg[i:] {
				nd.data = nil
			}
			return len(seg), err
		}
		w := r.workers[i*r.n/len(seg)]
		nd.data = nil
		nd.next, w.free = w.free, nd
	}
	return len(seg), nil
}

// Stage draws a node for an arriving task — off a worker's free list,
// from a slab when they are all empty — and returns its inline words for
// the decoder to fill. The task is not in a deque until Commit.
func (x *Stopped) Stage(id uint64, origin int) *app.Words {
	r := x.r
	var nd *node
	for _, w := range r.workers {
		if nd = w.free; nd != nil {
			w.free = nd.next
			break
		}
	}
	if nd == nil {
		nd = r.carve(r.workers[0])
	}
	nd.id, nd.origin, nd.data = id, origin, nil
	r.xfer = append(r.xfer[:x.staged], nd)
	x.staged++
	return &nd.w
}

// Commit pushes the staged tasks onto the deques in the order they were
// staged, an even share per worker.
func (x *Stopped) Commit() {
	x.r.pushMove(0, x.r.xfer[:x.staged])
	x.staged = 0
}

// StageRound stages this member's share of the given round's roots.
func (x *Stopped) StageRound(round int) {
	x.r.round = round
	x.r.loadRoots(round)
}
