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
	w.u32(uint32(len(addrs)))
	for _, a := range addrs {
		w.str(a)
	}
	return w.b
}

func decodeMembers(p []byte) ([]string, error) {
	r := rbuf{b: p}
	n := r.u32("count")
	if n > maxPayload/4 {
		return nil, fmt.Errorf("cluster: malformed payload: absurd member count %d", n)
	}
	addrs := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		addrs = append(addrs, r.str("addr"))
	}
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
}

func (m attachMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.str(m.App)
	w.u32(uint32(m.Size))
	w.u32(uint32(m.K))
	w.u32(uint32(m.Member))
	w.bytes(m.Config)
	return w.b
}

func decodeAttach(p []byte) (attachMsg, error) {
	r := rbuf{b: p}
	m := attachMsg{
		Job:    r.u64("job"),
		App:    r.str("app"),
		Size:   int(r.u32("size")),
		K:      int(r.u32("k")),
		Member: int(r.u32("member")),
		Config: r.bytes("config"),
	}
	if err := r.fin(); err != nil {
		return attachMsg{}, err
	}
	if m.K <= 0 || m.Member < 0 || m.Member >= m.K {
		return attachMsg{}, fmt.Errorf("cluster: malformed attach: member %d of %d", m.Member, m.K)
	}
	return m, nil
}

// jobMsg is the bare job-scoped signal (fDrained, fPhase, fResume,
// fFinish).
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

// loadsMsg reports a member's queue length (fAttachOK, fLoads, fPutOK).
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

// takeMsg orders a member to hand over tasks (fTake).
type takeMsg struct {
	Job   uint64
	To    int // destination member index
	Count int
}

func (m takeMsg) encode() []byte {
	var w wbuf
	w.u64(m.Job)
	w.u32(uint32(m.To))
	w.u32(uint32(m.Count))
	return w.b
}

func decodeTake(p []byte) (takeMsg, error) {
	r := rbuf{b: p}
	m := takeMsg{Job: r.u64("job"), To: int(r.u32("to")), Count: int(r.u32("count"))}
	return m, r.fin()
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

// A batch ships tasks (fBatch member→coordinator, fPut
// coordinator→member; the coordinator relays the payload unchanged,
// only the frame type flips):
//
//	u64 job | u32 to | u32 count | count × (u64 id | u32 origin | u32 size | bytes payload)
//
// to is the destination member's index and size the payload's length.
// No side ever holds a batch as a message value: the sender appends it
// task by task from its task nodes into one reused buffer
// (memberRun.give), the coordinator counts it (batchCount), and the
// receiver decodes it straight into task nodes (installBatch).
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

// batchCount is what the coordinator needs of a batch it relays: the
// number of tasks, and the assurance that it is well-formed up to the
// payloads, which only the receiving member's codec can judge.
func batchCount(p []byte) (int, error) { return walkBatch(p, nil) }

// installBatch decodes a batch straight into task nodes of the member's
// stopped engine — no message value, no boxed payload — and commits
// them to the deques only if the whole batch is well-formed.
func installBatch(x *par.Stopped, codec app.PayloadCodec, p []byte) error {
	_, err := walkBatch(p, func(id uint64, origin int, payload []byte) error {
		if err := codec.DecodeInto(payload, x.Stage(id, origin)); err != nil {
			return fmt.Errorf("cluster: deserializing task %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	x.Commit()
	return nil
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
