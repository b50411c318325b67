package par

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/topo"
)

// soloMember is a member-mode run that is its job's only member: its
// exchange has nobody to trade with, so all it does is stage the next
// round when the member has drained and end the run after the last.
func soloMember(tb testing.TB, a app.App, workers int) *MemberRun {
	round := 0
	m, err := NewMemberRun(a, workers, Member{Width: 1, Exchange: func(x *Stopped) bool {
		for x.TransferPending() {
			x.AckTransfer()
		}
		if x.Load() > 0 {
			return true
		}
		if round++; round >= a.Rounds() {
			return false
		}
		x.StageRound(round)
		return true
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestMemberSolo: a member alone in its job is a whole run, at one
// worker and at two, and NewMemberRun refuses a member it cannot place.
func TestMemberSolo(t *testing.T) {
	a := queens8()
	want := measure(t, a)
	for _, workers := range []int{1, 2} {
		res := soloMember(t, a, workers).Run()
		checkPar(t, fmt.Sprintf("solo member, %d workers", workers), res, want)
		if res.Nonlocal != 0 || res.Canceled {
			t.Errorf("solo member, %d workers: nonlocal %d, canceled %v", workers, res.Nonlocal, res.Canceled)
		}
	}
	ok := func(*Stopped) bool { return false }
	for _, bad := range []struct {
		a       app.App
		workers int
		m       Member
	}{
		{nil, 1, Member{Width: 1, Exchange: ok}},
		{a, 0, Member{Width: 1, Exchange: ok}},
		{a, 1, Member{Width: 0, Exchange: ok}},
		{a, 1, Member{Index: 2, Width: 2, Exchange: ok}},
		{a, 1, Member{Index: -1, Width: 2, Exchange: ok}},
		{a, 1, Member{Width: 1}},
	} {
		if _, err := NewMemberRun(bad.a, bad.workers, bad.m); err == nil {
			t.Errorf("NewMemberRun(%v, %d, %+v) accepted", bad.a, bad.workers, bad.m)
		}
	}
}

// TestMemberCancel: Cancel ends a run between exchanges with the
// partial result marked, and no exchange is called after it.
func TestMemberCancel(t *testing.T) {
	var m *MemberRun
	calls := 0
	m, err := NewMemberRun(nqueens.New(12, 4), 2, Member{Width: 1, Exchange: func(x *Stopped) bool {
		if calls++; calls > 1 {
			t.Error("exchange called on a canceled run")
		}
		m.Cancel()
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if !res.Canceled || res.Executed >= res.Generated {
		t.Errorf("canceled member run: canceled %v, executed %d of %d generated", res.Canceled, res.Executed, res.Generated)
	}
}

// TestMemberYieldsPerSlice pins the single-P fairness of a member's user
// phase from both sides. A bystander goroutine stands in for the reader
// of the member's connection: on one P it runs only when the member's
// worker gives the processor up, so its turns count the worker's yields.
// There must be about one per yieldSlice of busy time — far more than
// the runtime's own 10ms preemption would grant, far fewer than one per
// task.
func TestMemberYieldsPerSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := soloMember(t, puzzle.Configs()[0], 1)
	var turns atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				turns.Add(1)
				runtime.Gosched()
			}
		}
	}()
	res := m.Run()
	close(stop)
	<-stopped
	slices, got := int64(res.Busy/yieldSlice), turns.Load()
	if got < slices/4 {
		t.Errorf("the bystander ran %d times in %v of execution (%d slices): the member is not yielding every slice", got, res.Busy, slices)
	}
	if got > 2*slices+100 && got > res.Executed/10 {
		t.Errorf("the bystander ran %d times for %d tasks in %d slices: the member yields per task again", got, res.Executed, slices)
	}
}

// TestNonMemberPaysNothing: the yield is the member's alone — any other
// run's workers carry a yield mark no busy time reaches — and the seam
// left the detector, whose request word every worker reads between
// tasks, the single cache line it was.
func TestNonMemberPaysNothing(t *testing.T) {
	if size := reflect.TypeOf(detector{}).Size(); size > 64 {
		t.Errorf("detector is %d bytes: it no longer fits the 64-byte size class, so req shares a line with a neighbour", size)
	}
	for _, s := range []Strategy{RIPS, Steal, Hybrid} {
		cfg := Config{Topo: topo.NewMesh(2, 2), App: queens8(), Strategy: s}
		for _, w := range newEngineRun(&cfg).workers {
			if w.yieldAt != noTimeout {
				t.Errorf("%s: worker %d yields at %v of busy time", s, w.id, w.yieldAt)
			}
		}
	}
}

// appendWireTask appends one task in the test's wire format: id, origin,
// payload length, payload.
func appendWireTask(dst []byte, codec app.PayloadCodec, id uint64, origin int, payload any) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint32(dst, uint32(origin))
	at := len(dst)
	dst = append(dst, 0)
	dst, err := codec.AppendPayload(dst, payload)
	dst[at] = byte(len(dst) - at - 1)
	return dst, err
}

// stageWire decodes a buffer of appendWireTask records straight into
// nodes of x and commits them.
func stageWire(x *Stopped, codec app.PayloadCodec, p []byte) error {
	for len(p) > 0 {
		id, origin, n := binary.BigEndian.Uint64(p), int(binary.BigEndian.Uint32(p[8:])), int(p[12])
		if err := codec.DecodeInto(p[13:13+n], x.Stage(id, origin)); err != nil {
			return err
		}
		p = p[13+n:]
	}
	x.Commit()
	return nil
}

// pairExchange is an in-memory coordinator for two members: whoever
// reaches an exchange first asks the other to stop, and the second to
// arrive — both worlds stopped, ordered by the mutex — plays planner on
// a two-node machine: even the loads out through the app's wire codec,
// or, with nothing left anywhere, stage the next round on both.
type pairExchange struct {
	mu      sync.Mutex
	cond    *sync.Cond
	a       app.App
	codec   app.PayloadCodec
	runs    [2]*MemberRun
	x       [2]*Stopped
	arrived int
	gen     int
	round   int
	resume  bool
	moved   int
	buf     []byte
	give    func(id uint64, origin int, payload any) error
	err     error
}

func (p *pairExchange) meet(i int, x *Stopped) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for x.TransferPending() {
		x.AckTransfer() // whatever was asked of this member so far brought it here
	}
	p.x[i] = x
	if p.arrived++; p.arrived == 1 {
		p.runs[1-i].RequestTransfer()
		for gen := p.gen; p.gen == gen; {
			p.cond.Wait()
		}
		return p.resume
	}
	p.plan()
	p.arrived = 0
	p.gen++
	p.cond.Broadcast()
	return p.resume
}

func (p *pairExchange) plan() {
	p.resume = p.err == nil
	if p.x[0].Load()+p.x[1].Load() == 0 {
		if p.round++; p.round >= p.a.Rounds() {
			p.resume = false
			return
		}
		p.x[0].StageRound(p.round)
		p.x[1].StageRound(p.round)
	}
	from, to := p.x[0], p.x[1]
	if from.Load() < to.Load() {
		from, to = to, from
	}
	p.buf = p.buf[:0]
	n, err := from.Take((from.Load()-to.Load())/2, p.give)
	if err == nil {
		err = stageWire(to, p.codec, p.buf)
	}
	if p.moved += n; err != nil {
		p.err, p.resume = err, false
	}
}

// TestMemberPairTrades runs a job on two member-mode runs of two workers
// each — stealing inside a member, planned trades between them — and
// requires the sequential answer, task count and virtual work of the
// sum. Under -race (and -tags ripsperturb) it is also the proof that the
// exchange touches a member's deques and free lists only while that
// member's world is stopped.
func TestMemberPairTrades(t *testing.T) {
	if testing.Short() {
		t.Skip("two-member runs of IDA* #1 and 12-Queens")
	}
	for _, a := range []app.App{puzzle.Configs()[0], nqueens.New(12, 4)} {
		want := measure(t, a)
		p := &pairExchange{a: a, codec: a.(app.PayloadCodec)}
		p.cond = sync.NewCond(&p.mu)
		p.give = func(id uint64, origin int, payload any) (err error) {
			p.buf, err = appendWireTask(p.buf, p.codec, id, origin, payload)
			return err
		}
		for i := range p.runs {
			m, err := NewMemberRun(a, 2, Member{Index: i, Width: 2, Exchange: func(x *Stopped) bool { return p.meet(i, x) }})
			if err != nil {
				t.Fatal(err)
			}
			p.runs[i] = m
		}
		var res [2]Result
		var wg sync.WaitGroup
		for i, m := range p.runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[i] = m.Run()
			}()
		}
		wg.Wait()
		if p.err != nil {
			t.Fatalf("%s: exchange: %v", a.Name(), p.err)
		}
		sum := res[0]
		sum.Generated += res[1].Generated
		sum.Executed += res[1].Executed
		sum.AppResult += res[1].AppResult
		sum.VirtualWork += res[1].VirtualWork
		sum.Nonlocal += res[1].Nonlocal
		checkPar(t, a.Name()+" on two members", sum, want)
		if p.moved == 0 || sum.Nonlocal == 0 || sum.Nonlocal > int64(p.moved) {
			t.Errorf("%s: %d tasks traded, %d executed away from the member they were born on", a.Name(), p.moved, sum.Nonlocal)
		}
		if res[1].Executed == 0 {
			t.Errorf("%s: member 1, which starts empty, executed nothing", a.Name())
		}
	}
}

// TestMemberExchangeAllocs is the member's steady-state allocation gate,
// beside TestDequeExecutorAllocs: once a run is warm, a TAKE/PUT cycle —
// tasks encoded from their nodes into one buffer, the nodes retired, the
// same tasks decoded into nodes off that free list and committed — and
// the tasks executed between cycles allocate nothing. A lap is the whole
// of 8-Queens on one worker with a cycle of up to 64 tasks every 64
// executions.
func TestMemberExchangeAllocs(t *testing.T) {
	a := queens8()
	roots := a.Roots(0)
	m := soloMember(t, a, 1)
	r, x := m.r, &m.r.xch
	w := r.workers[0]
	var buf []byte
	give := func(id uint64, origin int, payload any) (err error) {
		buf, err = appendWireTask(buf, a, id, origin, payload)
		return err
	}
	traded := 0
	lap := func() {
		for _, sp := range roots {
			w.emit(sp)
		}
		w.release()
		for n := 1; ; n++ {
			tk, _ := w.d.steal()
			if tk == nil {
				return
			}
			r.execute(w, tk)
			if n%64 != 0 {
				continue
			}
			buf = buf[:0]
			k, err := x.Take(64, give)
			if err == nil {
				err = stageWire(x, a, buf)
			}
			if traded += k; err != nil || x.Load() < k {
				t.Fatalf("cycle of %d tasks: load %d, %v", k, x.Load(), err)
			}
		}
	}
	lap() // buys the slab, the ring, the scratch and the buffer
	executed := w.executed
	if avg := testing.AllocsPerRun(10, lap); avg != 0 {
		t.Errorf("a lap of %d tasks with a TAKE/PUT cycle every 64 allocates %.1f times", executed, avg)
	}
	if traded == 0 || w.executed != 12*executed {
		t.Errorf("traded %d tasks, executed %d in 12 laps of %d", traded, w.executed, executed)
	}
}

// BenchmarkMemberExecute measures a member's user-phase step — claim the
// oldest task, execute, file the children, the yield decision — on one
// worker draining IDA* #1 round after round; ns/op is ns per task.
func BenchmarkMemberExecute(b *testing.B) {
	a := puzzle.Configs()[0]
	r := soloMember(b, a, 1).r
	w := r.workers[0]
	round := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, _ := w.d.steal()
		if tk == nil {
			r.loadRoots(round)
			round = (round + 1) % a.Rounds()
			tk, _ = w.d.steal()
		}
		r.execute(w, tk)
	}
}
