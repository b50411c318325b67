package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rips/internal/app"
	"rips/internal/ripsrt"
	"rips/internal/sched"
	"rips/internal/sim"
	"rips/internal/topo"
)

// benchNode is one task of the synthetic benchmark workload: a node of
// a tree preallocated at construction, walked by pointer. Executing a
// node allocates nothing — the payload interface holds a pointer, so
// no boxing happens on emit.
type benchNode struct {
	children []*benchNode
}

// benchApp is the allocation-free workload behind the par benchmarks
// and the steady-state zero-alloc proof: a uniform tree of depth d and
// fanout f whose Execute only walks preallocated nodes.
type benchApp struct {
	root *benchNode
}

func newBenchApp(depth, fanout int) *benchApp {
	var build func(d int) *benchNode
	build = func(d int) *benchNode {
		n := &benchNode{}
		if d > 0 {
			n.children = make([]*benchNode, fanout)
			for i := range n.children {
				n.children[i] = build(d - 1)
			}
		}
		return n
	}
	return &benchApp{root: build(depth)}
}

func (a *benchApp) Name() string          { return "benchtree" }
func (a *benchApp) Rounds() int           { return 1 }
func (a *benchApp) Roots(int) []app.Spawn { return []app.Spawn{{Data: a.root}} }
func (a *benchApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	for _, c := range data.(*benchNode).children {
		emit(app.Spawn{Data: c})
	}
	return 1
}

// runTree stages root on w the way a round's roots are staged and
// executes the whole tree below it, oldest task first, pushing whatever
// the local policy left listed: afterwards every node the tree used is
// back on w's free list.
func (r *engineRun) runTree(w *engineWorker, root *benchNode) {
	w.emit(app.Spawn{Data: root})
	for {
		w.release()
		tk, _ := w.d.steal()
		if tk == nil {
			return
		}
		r.execute(w, tk)
	}
}

// TestSteadyStateZeroAlloc is the allocation contract of the engine's
// hot path under RIPS: once the reusable buffers are warm, executing
// tasks, running a balanced system phase and applying a plan's moves
// through the run's scratch must not allocate at all — a task's node
// comes off the free list its predecessors retired to.
// The planner itself is excluded from the contract (it builds fresh
// trace vectors per call; see DESIGN.md §9) — which is why the balanced
// fast path matters: it is the steady state, and it skips the planner
// entirely.
func TestSteadyStateZeroAlloc(t *testing.T) {
	t.Run("execute", func(t *testing.T) {
		for _, local := range []ripsrt.LocalPolicy{ripsrt.Lazy, ripsrt.Eager} {
			a := newBenchApp(3, 8) // 585 tasks, 512 of them listed at once: more than two slabs
			cfg := Config{Topo: topo.NewMesh(1, 1), App: a, Local: local}
			r := newEngineRun(&cfg)
			w := r.workers[0]
			body := func() { r.runTree(w, a.root) }
			body() // the lap that buys the slabs, the ring and the pending list
			if avg := testing.AllocsPerRun(20, body); avg != 0 {
				t.Errorf("%s: a lap of 585 tasks over a warm free list allocates %.1f times", local, avg)
			}
		}
	})

	t.Run("balanced-phase", func(t *testing.T) {
		cfg := Config{Topo: topo.NewMesh(2, 2), App: newBenchApp(1, 2)}
		r := newEngineRun(&cfg)
		for _, w := range r.workers {
			pushFresh(w, 8)
		}
		body := func() { r.beginPhase() } // balanced: snapshot + invariants, no planner
		body()
		if avg := testing.AllocsPerRun(200, body); avg != 0 {
			t.Errorf("balanced system phase allocates %.1f times per phase", avg)
		}
	})

	t.Run("apply", func(t *testing.T) {
		cfg := Config{Topo: topo.NewMesh(1, 2), App: newBenchApp(1, 2)}
		r := newEngineRun(&cfg)
		const k = 64
		pushFresh(r.workers[0], 2*k)
		fwd := sched.Move{From: 0, To: 1, Count: k}
		back := sched.Move{From: 1, To: 0, Count: k}
		body := func() { // ping-pong k tasks so state returns to start
			r.pushMove(1, r.takeMove(fwd))
			r.pushMove(0, r.takeMove(back))
		}
		body() // the lap that grows the scratch to its high-water mark, and the deque rings
		if avg := testing.AllocsPerRun(100, body); avg != 0 {
			t.Errorf("plan application allocates %.1f times per phase", avg)
		}
	})
}

// BenchmarkExecute measures the per-task user-phase cost under RIPS:
// an 8-fanout task and its eight leaves — nine nodes off the free list,
// through the deque oldest first, and back.
func BenchmarkExecute(b *testing.B) {
	a := newBenchApp(1, 8)
	cfg := Config{Topo: topo.NewMesh(1, 1), App: a}
	r := newEngineRun(&cfg)
	w := r.workers[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.runTree(w, a.root)
	}
}

// BenchmarkExchange measures the batched-migration primitive: a
// round trip of 1024 tasks between two deques through a persistent
// scratch slice (takeBottomInto + bulk push each way).
func BenchmarkExchange(b *testing.B) {
	const k = 1024
	d0, d1 := newDeque(), newDeque()
	d0.push(syntheticTasks(k)...)
	buf := make([]*node, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := d0.takeBottomInto(buf)
		d1.push(buf[:got]...)
		got = d1.takeBottomInto(buf)
		d0.push(buf[:got]...)
	}
}

// BenchmarkSystemPhase measures one full stop-the-world system phase on
// a 16-worker mesh with a heavily skewed load (even workers hold 4096
// tasks, odd workers none); `go run ./bench -trace 1` reports the same
// measurement at its own worker count as par.system_phase_us.
func BenchmarkSystemPhase(b *testing.B) {
	cfg := Config{Topo: topo.NewMesh(4, 4), App: newBenchApp(1, 2)}
	r := newEngineRun(&cfg)
	load := syntheticTasks(4096)
	r.fillSkewed(load) // pre-grow the deque rings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.fillSkewed(load)
		b.StartTimer()
		r.phaseOnce()
	}
}

// roundsApp is many rounds of one empty task each: all a run of it does
// is cross round boundaries.
type roundsApp struct {
	rounds int
	root   []app.Spawn
}

func (a *roundsApp) Name() string                          { return "rounds" }
func (a *roundsApp) Rounds() int                           { return a.rounds }
func (a *roundsApp) Roots(int) []app.Spawn                 { return a.root }
func (a *roundsApp) Execute(any, func(app.Spawn)) sim.Time { return 1 }

// BenchmarkRoundBoundary measures one round boundary on two workers,
// end to end: worker 1 drains at once and waits in the detector, worker
// 0 executes the round's only task and drains, the drained count
// reaches two and publishes the request, both cross the barrier, the
// leader finds a zero total and stages the next round. ns/op is ns per
// round; IDA* pays it once per cost bound. When it took a timer tick
// this was the whole of par_fine's idle share.
func BenchmarkRoundBoundary(b *testing.B) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: &roundsApp{rounds: b.N, root: []app.Spawn{{}}}}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Executed != int64(b.N) {
		b.Fatalf("executed %d tasks in %d rounds", res.Executed, b.N)
	}
}

// BenchmarkDetectorWake measures the detector's wake latency: from the
// request for a phase being published to a worker waiting in await —
// third of three, so neither the count nor its hour-long interval ends
// the wait — being back in its caller. The two sides hand over through
// atomics and yields, the way workers do; wake-ns is the latency alone,
// ns/op includes the handshake that parks the waiter again.
func BenchmarkDetectorWake(b *testing.B) {
	var cancel atomic.Bool
	d := newDetector(&Config{DetectInterval: time.Hour}, 3, &cancel)
	var parkable, returned atomic.Int64 // phases the waiter may enter / has left
	parkable.Store(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for phase := int64(0); phase < int64(b.N); phase++ {
			for parkable.Load() <= phase {
				runtime.Gosched()
			}
			d.await(0, phase, nil)
			returned.Store(phase + 1)
		}
	}()
	var wake time.Duration
	b.ResetTimer()
	for phase := int64(0); phase < int64(b.N); phase++ {
		for d.drained.Load() != 1 {
			runtime.Gosched()
		}
		start := time.Now()
		d.req.Store(phase)
		for returned.Load() <= phase {
			runtime.Gosched()
		}
		wake += time.Since(start)
		d.drained.Store(0) // the leader's reset, before the waiter may park again
		parkable.Store(phase + 2)
	}
	<-done
	b.ReportMetric(float64(wake.Nanoseconds())/float64(b.N), "wake-ns")
}
