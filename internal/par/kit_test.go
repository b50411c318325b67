package par

import (
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/sim"
	"rips/internal/topo"
)

// dropIdleKits empties the process's list of idle kits, so that what a
// test finds there afterwards is what its own runs put.
func dropIdleKits() {
	for kits.Get() != nil {
	}
}

// TestWarmRunBuysNothing: a run in a process that has just run the same
// job, with no collection in between, finds in the kit every slab, ring
// and scratch it needs. What is left is the constant part of a run —
// workers, deques, detector, barrier — and the planner's vectors: no
// term in the node count, no ring doubling. Which worker holds how much
// of the frontier varies from run to run, so a ring may still double in
// the first warm runs, where its worker holds more than it ever did; the
// rings only grow and the frontier bounds them, so within a few runs one
// buys nothing.
func TestWarmRunBuysNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const perRun, perPhase = 250, 16 // TestDequeExecutorAllocs' constants
	const maxBytes, tries = 64 << 10, 8
	for _, a := range []app.App{puzzle.Config(1), nqueens.New(14, 4)} {
		want := measure(t, a)
		for _, cfg := range []Config{
			{Strategy: RIPS},
			{Strategy: Steal},
			{Strategy: Hybrid, Domains: 1},
		} {
			cfg.Topo, cfg.App = topo.NewMesh(1, 2), a
			label := a.Name() + "/" + cfg.Strategy.String()
			dropIdleKits()
			checkPar(t, label+" cold", mustRun(t, cfg), want)
			for try := 1; ; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r := newEngineRun(&cfg)
				warm, err := r.run(goDriver{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkPar(t, label+" warm", warm, want)
				mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
				t.Logf("%s: warm run %d of %d tasks on %d nodes in %d phases: %d allocations, %d bytes", label, try, want.tasks, r.nodes, warm.Phases, mallocs, bytes)
				limit := uint64(perRun + perPhase*int(warm.Phases))
				if mallocs <= limit && bytes <= maxBytes {
					break
				}
				if try == tries {
					t.Errorf("%s: warm run %d still made %d allocations of %d bytes in %d phases, want at most %d and %d", label, try, mallocs, bytes, warm.Phases, limit, maxBytes)
					break
				}
			}
		}
	}
}

// idleKit returns a weak pointer to the kit the next run would take,
// leaving it where it was. It is a function of its own so that no strong
// pointer to the kit stays in the caller's frame.
//
//go:noinline
func idleKit() weak.Pointer[kit] {
	k := kits.Get()
	if k == nil {
		return weak.Pointer[kit]{}
	}
	kits.Put(k)
	return weak.Make(k)
}

// TestIdleKitIsCollectable pins the retention policy: a kit no run holds
// is garbage at the collector's next cycle, and a run that finds none
// buys its own.
func TestIdleKitIsCollectable(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: queens8()}
	dropIdleKits()
	checkQueens8(t, mustRun(t, cfg), "cold")
	k := idleKit()
	if k.Value() == nil {
		t.Fatal("a completed run left no kit")
	}
	runtime.GC()
	runtime.GC()
	if k.Value() != nil {
		t.Error("an idle kit survived two collections")
	}
	if kits.Get() != nil {
		t.Error("the list handed out a kit after two collections")
	}
	checkQueens8(t, mustRun(t, cfg), "after the collection")
}

// TestUnstartedRunLeavesTheKit: a run that is built and never started —
// a member whose session died first, a system-phase measurement — takes
// no kit: the next job still finds the warm one.
func TestUnstartedRunLeavesTheKit(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: queens8()}
	dropIdleKits()
	r := newEngineRun(&cfg)
	k := r.kit
	if _, err := r.run(goDriver{}); err != nil {
		t.Fatal(err)
	}
	newEngineRun(&cfg)
	if _, err := NewMemberRun(cfg.App, 1, Member{Width: 1, Exchange: func(*Stopped) bool { return false }}); err != nil {
		t.Fatal(err)
	}
	MeasureSystemPhase(2, 64, 2, false)
	if got := kits.Get(); got != k {
		t.Errorf("the list hands out kit %p after three runs that never started, want the finished run's %p", got, k)
	}
	if kits.Get() != nil {
		t.Error("a run that never started left a kit of its own")
	}
}

// abandonApp is a uniform tree whose every payload is a heap object with
// a finalizer, and whose stopAt-th task to execute calls stop.
type abandonApp struct {
	fanout, depth int
	stopAt        int64
	stop          func()

	created, executed, finalized atomic.Int64
}

type abandonPayload struct {
	depth int
	app   *abandonApp
}

func (a *abandonApp) spawn(depth int) app.Spawn {
	p := &abandonPayload{depth: depth, app: a}
	a.created.Add(1)
	runtime.SetFinalizer(p, func(p *abandonPayload) { p.app.finalized.Add(1) })
	return app.Spawn{Data: p}
}

func (a *abandonApp) Name() string          { return "abandon" }
func (a *abandonApp) Rounds() int           { return 1 }
func (a *abandonApp) Roots(int) []app.Spawn { return []app.Spawn{a.spawn(0)} }
func (a *abandonApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	if a.executed.Add(1) == a.stopAt {
		a.stop()
	}
	if p := data.(*abandonPayload); p.depth < a.depth {
		for k := 0; k < a.fanout; k++ {
			emit(a.spawn(p.depth + 1))
		}
	}
	return 1
}

// TestCanceledRunReturnsNoKit: a run that stops with tasks in its deques
// hands its kit to nobody, and lets go of it: the abandoned payloads are
// collectable while the run is still reachable.
func TestCanceledRunReturnsNoKit(t *testing.T) {
	for _, cfg := range []Config{{Strategy: RIPS}, {Strategy: Steal}} {
		a := &abandonApp{fanout: 3, depth: 8, stopAt: 200}
		cfg.Topo, cfg.App = topo.NewMesh(1, 2), a
		dropIdleKits()
		r := newEngineRun(&cfg)
		a.stop = func() { r.cancel.Store(true) }
		res, err := r.run(goDriver{})
		if err != nil || !res.Canceled || res.Executed == res.Generated {
			t.Fatalf("%s: run not cut short: executed %d of %d, canceled %v, err %v", cfg.Strategy, res.Executed, res.Generated, res.Canceled, err)
		}
		if kits.Get() != nil {
			t.Errorf("%s: a canceled run handed on its kit", cfg.Strategy)
		}
		spinUntil(t, func() bool {
			runtime.GC()
			return a.finalized.Load() == a.created.Load()
		}, cfg.Strategy.String()+": every payload finalized with the canceled run still reachable")
		runtime.KeepAlive(r)
	}
}

// TestFailedTakeHandsOnACleanKit: a member whose exchange empties the
// deques and fails halfway through the batch ends with nothing in a
// deque, like a completed run, and the tasks it dropped are in nobody's
// hands. The kit it hands on must hold none of their payloads.
func TestFailedTakeHandsOnACleanKit(t *testing.T) {
	a := &abandonApp{fanout: 8, depth: 1}
	failed := errors.New("the wire broke")
	var m *MemberRun
	m, err := NewMemberRun(a, 1, Member{Width: 1, Exchange: func(x *Stopped) bool {
		if a.executed.Load() == 0 {
			m.RequestTransfer() // stop again once the root has run
			return true
		}
		x.AckTransfer()
		load, seen := x.Load(), 0
		n, err := x.Take(load, func(uint64, int, any) error {
			if seen++; seen == 3 {
				return failed
			}
			return nil
		})
		if load < 3 || n != load || err != failed || x.Load() != 0 {
			t.Errorf("Take removed %d of %d tasks with %v and left %d, want all of them, the visit's error and none", n, load, err, x.Load())
		}
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	dropIdleKits()
	k := m.r.kit
	if res := m.Run(); res.Canceled || res.Executed == res.Generated {
		t.Fatalf("the run executed %d of %d tasks, canceled %v; want some dropped and no cancel", res.Executed, res.Generated, res.Canceled)
	}
	if got := kits.Get(); got != k {
		t.Fatalf("the list hands out kit %p, want the member's %p", got, k)
	}
	for _, slab := range k.slabs {
		for _, nd := range slab[:cap(slab)] {
			if nd.data != nil {
				t.Fatal("a node of the kit handed on still holds a dropped task's payload")
			}
		}
	}
}

// TestFinishedRunHoldsNoKitMemory: once run has returned, the engineRun
// refers to nothing of the kit it handed on — checked while the next run
// is writing that kit's nodes and rings.
func TestFinishedRunHoldsNoKitMemory(t *testing.T) {
	cfg := Config{Topo: topo.NewMesh(1, 2), App: nqueens.New(11, 3)}
	want := measure(t, cfg.App)
	dropIdleKits()
	first := newEngineRun(&cfg)
	k := first.kit
	res, err := first.run(goDriver{})
	if err != nil {
		t.Fatal(err)
	}
	checkPar(t, "first", res, want)
	if first.nodes == 0 {
		t.Error("the run recorded no carved nodes")
	}

	second := newEngineRun(&cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := second.run(goDriver{})
		if err != nil {
			t.Error(err)
		}
		checkPar(t, "second", res, want)
	}()
	if first.kit != nil || first.xfer != nil {
		t.Error("the finished run still holds its kit or the move scratch")
	}
	for _, w := range first.workers {
		if w.free != nil || w.slab != nil || w.bought != nil || w.kids != nil || w.d.buf.Load() != nil {
			t.Errorf("worker %d of the finished run still holds nodes: free list, slab, bought slabs, pending list or ring", w.id)
		}
	}
	<-done
	if kits.Get() != k || kits.Get() != nil {
		t.Error("the second run did not run on the first one's kit and hand it on")
	}
}

// TestKitsUnderConcurrentLeases runs two leases of different widths side
// by side, each taking whatever kit the other or itself retired last: a
// one-worker run gets a two-worker run's kit and the reverse, nodes that
// carried pointers carry inline words next. Every answer must be the
// sequential one. Run it under -race.
func TestKitsUnderConcurrentLeases(t *testing.T) {
	pool, err := NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	for _, c := range []struct {
		width int
		cfg   Config
	}{
		{1, Config{App: newBenchApp(5, 4)}},
		{2, Config{App: nqueens.New(9, 3), Strategy: Steal}},
	} {
		lease, err := pool.Split(c.width)
		if err != nil {
			t.Fatal(err)
		}
		defer lease.Release()
		c.cfg.Topo = topo.NewMesh(1, c.width)
		want := measure(t, c.cfg.App)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := lease.Run(c.cfg)
				if err != nil {
					t.Errorf("%s run %d: %v", c.cfg.App.Name(), i, err)
					return
				}
				checkPar(t, c.cfg.App.Name(), res, want)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkWarmRun is one IDA* #1 job on two workers in a process that
// has run one before: B/op and allocs/op are what a job buys when the
// last job's kit is there to take.
func BenchmarkWarmRun(b *testing.B) {
	a := puzzle.Config(1)
	for _, s := range []Strategy{RIPS, Steal} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := Config{Topo: topo.NewMesh(1, 2), App: a, Strategy: s}
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
