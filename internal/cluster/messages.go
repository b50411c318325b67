package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"rips/internal/app"
	"rips/internal/par"
)

// Payload encodings. Every field is fixed-width big-endian or a
// u32-length-prefixed byte string; there is exactly one encoding per
// message (canonical), so identical messages are identical bytes.

// wbuf builds a payload append-style.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)      { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32)   { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)   { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)    { w.u64(uint64(v)) }
func (w *wbuf) str(s string)   { w.u32(uint32(len(s))); w.b = append(w.b, s...) }
func (w *wbuf) bytes(p []byte) { w.u32(uint32(len(p))); w.b = append(w.b, p...) }
func (w *wbuf) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// rbuf decodes a payload, latching the first error so callers check
// once at the end (fin).
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: malformed payload: short read at %s", what)
	}
}

func (r *rbuf) take(n int, what string) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail(what)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *rbuf) u8(what string) byte {
	p := r.take(1, what)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u32(what string) uint32 {
	p := r.take(4, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *rbuf) u64(what string) uint64 {
	p := r.take(8, what)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *rbuf) i64(what string) int64 { return int64(r.u64(what)) }

func (r *rbuf) bytes(what string) []byte {
	n := r.u32(what)
	if n > math.MaxInt32 {
		r.fail(what)
		return nil
	}
	return r.take(int(n), what)
}

func (r *rbuf) str(what string) string { return string(r.bytes(what)) }

// strs reads a counted list of strings. Every string costs at least its
// four length bytes, so a count the remaining payload cannot hold is
// refused before anything is sized by it.
func (r *rbuf) strs(what string) []string {
	n := r.u32(what)
	if r.err == nil && int64(n) > int64(len(r.b)/4) {
		r.err = fmt.Errorf("cluster: malformed payload: absurd %s count %d", what, n)
	}
	var ss []string
	for i := uint32(0); i < n && r.err == nil; i++ {
		ss = append(ss, r.str(what))
	}
	return ss
}

func (r *rbuf) boolean(what string) bool {
	switch r.u8(what) {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = fmt.Errorf("cluster: malformed payload: %s is not a bool", what)
		}
		return false
	}
}

func (r *rbuf) fin() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("cluster: malformed payload: %d trailing bytes", len(r.b))
	}
	return nil
}

// addrMsg carries one node address (fJoin, fPing).
func encodeAddr(addr string) []byte {
	var w wbuf
	w.str(addr)
	return w.b
}

func decodeAddr(p []byte) (string, error) {
	r := rbuf{b: p}
	addr := r.str("addr")
	return addr, r.fin()
}

// membersMsg carries the full membership list (fMembers).
func encodeMembers(addrs []string) []byte {
	var w wbuf
	w.strs(addrs)
	return w.b
}

func decodeMembers(p []byte) ([]string, error) {
	r := rbuf{b: p}
	addrs := r.strs("member")
	return addrs, r.fin()
}

// errorMsg carries a request-level failure (fError).
func encodeError(msg string) []byte {
	var w wbuf
	w.str(msg)
	return w.b
}

func decodeError(p []byte) (string, error) {
	r := rbuf{b: p}
	msg := r.str("message")
	return msg, r.fin()
}

// attachMsg recruits a member into a job (fAttach).
type attachMsg struct {
	Job    uint64
	App    string
	Size   int
	K      int    // cluster width: how many members the job spans
	Member int    // this member's index in the ring-ordered member list
	Config []byte // the job's rips ConfigJSON document
	// Key names the job on member links. Job numbers are drawn per
	// coordinator; the key adds the coordinator's address, so two
	// coordinators' jobs on one node cannot be confused.
	Key string
	// Members are the K ring-ordered member addresses: where member i
	// dials when the plan has it send to member j.
	Members []string
}

func (m attachMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.str(m.App)
	w.u32(uint32(m.Size))
	w.u32(uint32(m.K))
	w.u32(uint32(m.Member))
	w.bytes(m.Config)
	w.str(m.Key)
	w.strs(m.Members)
	return w.b
}

func decodeAttach(p []byte) (attachMsg, error) {
	r := rbuf{b: p}
	m := attachMsg{
		Job:     r.u64("job"),
		App:     r.str("app"),
		Size:    int(r.u32("size")),
		K:       int(r.u32("k")),
		Member:  int(r.u32("member")),
		Config:  r.bytes("config"),
		Key:     r.str("key"),
		Members: r.strs("member"),
	}
	if err := r.fin(); err != nil {
		return attachMsg{}, err
	}
	if m.K <= 0 || m.Member < 0 || m.Member >= m.K || len(m.Members) != m.K {
		return attachMsg{}, fmt.Errorf("cluster: malformed attach: member %d of %d, %d addresses", m.Member, m.K, len(m.Members))
	}
	return m, nil
}

// jobMsg is the bare job-scoped signal (fDrained, fPhase, fFinish).
func encodeJob(job uint64) []byte {
	var w wbuf
	w.u64(job)
	return w.b
}

func decodeJob(p []byte) (uint64, error) {
	r := rbuf{b: p}
	job := r.u64("job")
	return job, r.fin()
}

// loadsMsg reports a member's queue length (fAttachOK, fLoads).
type loadsMsg struct {
	Job  uint64
	Load int
}

func (m loadsMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.u32(uint32(m.Load))
	return w.b
}

func decodeLoads(p []byte) (loadsMsg, error) {
	r := rbuf{b: p}
	m := loadsMsg{Job: r.u64("job"), Load: int(r.u32("load"))}
	return m, r.fin()
}

// planOp is one step of a member's part in a phase's plan: a batch of
// Count tasks it sends to, or receives from, member Peer.
type planOp struct {
	Recv  bool
	Peer  int
	Count int
}

// planOpSize is an encoded planOp: u8 direction | u32 peer | u32 count.
const planOpSize = 1 + 4 + 4

// planMsg is one member's share of a phase's plan (fPlan): its sends and
// receives in the plan's own order, after the last of which it resumes.
// An empty list is a bare resume.
type planMsg struct {
	Job uint64
	Ops []planOp
}

func (m planMsg) encode() []byte {
	w := wbuf{b: make([]byte, 0, 8+4+planOpSize*len(m.Ops))}
	w.u64(m.Job)
	w.u32(uint32(len(m.Ops)))
	for _, op := range m.Ops {
		w.boolean(op.Recv)
		w.u32(uint32(op.Peer))
		w.u32(uint32(op.Count))
	}
	return w.b
}

// decodePlan decodes the plan of member self of k. Beyond the shape it
// refuses what no planner writes: a peer outside the job, a member
// trading with itself, a batch of nothing.
func decodePlan(p []byte, k, self int) (planMsg, error) {
	r := rbuf{b: p}
	m := planMsg{Job: r.u64("job")}
	n := r.u32("op count")
	if r.err == nil && int64(n)*planOpSize != int64(len(r.b)) {
		return planMsg{}, fmt.Errorf("cluster: malformed plan: %d ops in %d bytes", n, len(r.b))
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		op := planOp{Recv: r.boolean("op direction"), Peer: int(r.u32("op peer")), Count: int(r.u32("op tasks"))}
		if r.err == nil && (op.Peer >= k || op.Peer == self || op.Count <= 0) {
			return planMsg{}, fmt.Errorf("cluster: malformed plan: member %d of %d trades %d tasks with member %d", self, k, op.Count, op.Peer)
		}
		m.Ops = append(m.Ops, op)
	}
	if err := r.fin(); err != nil {
		return planMsg{}, err
	}
	return m, nil
}

// linkMsg opens a member link (fLink): the dialing member names the job
// by its key and itself by its index, and sends batches from then on.
type linkMsg struct {
	Key  string
	From int
}

func (m linkMsg) encode() []byte {
	var w wbuf
	w.str(m.Key)
	w.u32(uint32(m.From))
	return w.b
}

func decodeLink(p []byte) (linkMsg, error) {
	r := rbuf{b: p}
	m := linkMsg{Key: r.str("key"), From: int(r.u32("from"))}
	if err := r.fin(); err != nil {
		return linkMsg{}, err
	}
	return m, nil
}

// roundMsg advances a job to its next globally-synchronized round
// (fRound).
type roundMsg struct {
	Job   uint64
	Round int
}

func (m roundMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.u32(uint32(m.Round))
	return w.b
}

func decodeRound(p []byte) (roundMsg, error) {
	r := rbuf{b: p}
	m := roundMsg{Job: r.u64("job"), Round: int(r.u32("round"))}
	return m, r.fin()
}

// A batch ships tasks from the member that gives them up straight to
// the member the plan sends them to (fBatch, on a member link):
//
//	u64 job | u32 to | u32 count | count × (u64 id | u32 origin | u32 size | bytes payload)
//
// to is the destination member's index and size the payload's length.
// No side ever holds a batch as a message value: the sender appends it
// task by task from its task nodes into one reused buffer
// (memberRun.give) and the receiver decodes it straight into task nodes
// (installBatch). The coordinator never sees one.
const batchHeaderSize = 8 + 4 + 4

// appendBatchHeader starts a batch; the count is patched in by
// setBatchCount once the tasks are appended.
func appendBatchHeader(dst []byte, job uint64, to int) []byte {
	w := wbuf{b: dst}
	w.u64(job)
	w.u32(uint32(to))
	w.u32(0)
	return w.b
}

func setBatchCount(batch []byte, n int) {
	binary.BigEndian.PutUint32(batch[batchHeaderSize-4:], uint32(n))
}

// appendBatchTask appends one task to a batch, its payload encoded in
// place by the app's codec.
func appendBatchTask(dst []byte, codec app.PayloadCodec, id uint64, origin int, payload any) ([]byte, error) {
	w := wbuf{b: dst}
	w.u64(id)
	w.u32(uint32(origin))
	at := len(w.b)
	w.u32(0) // size
	w.u32(0) // payload length
	b, err := codec.AppendPayload(w.b, payload)
	if err != nil {
		return dst, fmt.Errorf("cluster: serializing task %d: %w", id, err)
	}
	n := uint32(len(b) - at - 8)
	binary.BigEndian.PutUint32(b[at:], n)
	binary.BigEndian.PutUint32(b[at+4:], n)
	return b, nil
}

// walkBatch is the one strict reader of a batch: it checks the header,
// calls task for each task in order and refuses a short read, an absurd
// count and trailing bytes. It returns the task count.
func walkBatch(p []byte, task func(id uint64, origin int, payload []byte) error) (int, error) {
	r := rbuf{b: p}
	r.u64("job")
	r.u32("to")
	n := r.u32("count")
	if n > maxPayload/8 {
		return 0, fmt.Errorf("cluster: malformed batch: absurd task count %d", n)
	}
	for i := uint32(0); i < n && r.err == nil; i++ {
		id, origin := r.u64("task id"), int(r.u32("task origin"))
		r.u32("task size")
		payload := r.bytes("task payload")
		if r.err == nil && task != nil {
			if err := task(id, origin, payload); err != nil {
				return 0, err
			}
		}
	}
	return int(n), r.fin()
}

// installBatch decodes a batch straight into task nodes of the member's
// stopped engine — no message value, no boxed payload — and commits
// them to the deques only if the whole batch is well-formed. It returns
// how many tasks the batch held.
func installBatch(x *par.Stopped, codec app.PayloadCodec, p []byte) (int, error) {
	n, err := walkBatch(p, func(id uint64, origin int, payload []byte) error {
		if err := codec.DecodeInto(payload, x.Stage(id, origin)); err != nil {
			return fmt.Errorf("cluster: deserializing task %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	x.Commit()
	return n, nil
}

// countersMsg is a member's final tally (fCounters).
type countersMsg struct {
	Job       uint64
	Generated int64
	Executed  int64
	Nonlocal  int64
	AppResult int64
	Work      int64 // virtual work (sim.Time units)
	BusyNS    int64
}

func (m countersMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.i64(m.Generated)
	w.i64(m.Executed)
	w.i64(m.Nonlocal)
	w.i64(m.AppResult)
	w.i64(m.Work)
	w.i64(m.BusyNS)
	return w.b
}

func decodeCounters(p []byte) (countersMsg, error) {
	r := rbuf{b: p}
	m := countersMsg{
		Job:       r.u64("job"),
		Generated: r.i64("generated"),
		Executed:  r.i64("executed"),
		Nonlocal:  r.i64("nonlocal"),
		AppResult: r.i64("app result"),
		Work:      r.i64("work"),
		BusyNS:    r.i64("busy"),
	}
	return m, r.fin()
}

// cancelMsg abandons a job (fCancel).
type cancelMsg struct {
	Job    uint64
	Reason string
}

func (m cancelMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.str(m.Reason)
	return w.b
}

func decodeCancel(p []byte) (cancelMsg, error) {
	r := rbuf{b: p}
	m := cancelMsg{Job: r.u64("job"), Reason: r.str("reason")}
	return m, r.fin()
}

// Error kinds a resultMsg can carry back to the submitter. The typed
// error survives the hop: the submitting node reconstructs the same
// Go error the coordinator returned locally.
const (
	errNone     = 0
	errNodeLost = 1
	errDeadline = 2
	errCanceled = 3
	errOther    = 4
)

// resultMsg is a finished (or canceled) job outcome (fResult).
type resultMsg struct {
	Workers   int
	Generated int64
	Executed  int64
	Nonlocal  int64
	AppResult int64
	Work      int64
	Phases    int64
	WallNS    int64
	BusyNS    int64
	Canceled  bool
	ErrKind   byte
	ErrDetail string
}

func (m resultMsg) encode() []byte {
	var w wbuf
	w.u32(uint32(m.Workers))
	w.i64(m.Generated)
	w.i64(m.Executed)
	w.i64(m.Nonlocal)
	w.i64(m.AppResult)
	w.i64(m.Work)
	w.i64(m.Phases)
	w.i64(m.WallNS)
	w.i64(m.BusyNS)
	w.boolean(m.Canceled)
	w.u8(m.ErrKind)
	w.str(m.ErrDetail)
	return w.b
}

func decodeResult(p []byte) (resultMsg, error) {
	r := rbuf{b: p}
	m := resultMsg{
		Workers:   int(r.u32("workers")),
		Generated: r.i64("generated"),
		Executed:  r.i64("executed"),
		Nonlocal:  r.i64("nonlocal"),
		AppResult: r.i64("app result"),
		Work:      r.i64("work"),
		Phases:    r.i64("phases"),
		WallNS:    r.i64("wall"),
		BusyNS:    r.i64("busy"),
		Canceled:  r.boolean("canceled"),
		ErrKind:   r.u8("error kind"),
		ErrDetail: r.str("error detail"),
	}
	return m, r.fin()
}
