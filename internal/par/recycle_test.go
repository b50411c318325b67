package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rips/internal/app"
	"rips/internal/ripsrt"
	"rips/internal/sim"
	"rips/internal/topo"
)

// recycleApp is the workload that reuses task nodes as fast as they can
// be reused: tasks with empty bodies and a fan-out of 0 to 4, so a node
// is retired, rewritten and back in a deque within nanoseconds while
// the thieves, who never find much, are permanently in flight with
// pointers they may no longer own. A task is its index in an implicit
// 4-ary heap of recycleDepth levels; it marks that index, so a payload
// overwritten while its node was still somebody's shows as one index
// executed twice and another never.
//
// Execute is told neither the worker nor the task it runs on, so the
// marks are one atomic counter per index rather than a set per worker:
// they order the executions of one index only, which happen once, and
// add no edge between different tasks for the race detector to lean on.
type recycleApp struct {
	rounds int
	boxed  bool // payloads travel as Data (a pointer), not as inline words
	seen   []atomic.Int32
}

const (
	recycleDepth = 9
	recycleIDs   = (1<<(2*(recycleDepth+1)) - 1) / 3 // indices of a full 4-ary heap of that depth
)

// recyclePayload is the Data form of a task: a heap object with a
// pointer in it, so it is neither boxed in place nor packed among tiny
// allocations — what the garbage collector needs to say when the last
// reference to it went.
type recyclePayload struct {
	index, depth, round uint64
	app                 *recycleApp
}

func newRecycleApp(rounds int, boxed bool) *recycleApp {
	return &recycleApp{rounds: rounds, boxed: boxed, seen: make([]atomic.Int32, recycleIDs)}
}

// fanout is the number of children of the task at index, on round: a
// fixed scramble of both, 0 to 4 and mostly wide.
func (a *recycleApp) fanout(index, depth, round uint64) int {
	if depth == recycleDepth {
		return 0
	}
	h := (index + 1) * 0x9e3779b97f4a7c15 * (2*round + 1)
	return [8]int{4, 4, 3, 4, 2, 4, 1, 0}[h>>61]
}

// walk visits every task of one round in index order.
func (a *recycleApp) walk(round uint64, visit func(index uint64)) {
	var down func(index, depth uint64)
	down = func(index, depth uint64) {
		visit(index)
		for k := 0; k < a.fanout(index, depth, round); k++ {
			down(4*index+1+uint64(k), depth+1)
		}
	}
	down(0, 0)
}

func (a *recycleApp) spawn(index, depth, round uint64) app.Spawn {
	if a.boxed {
		return app.Spawn{Data: &recyclePayload{index: index, depth: depth, round: round, app: a}}
	}
	return app.Spawn{W: app.Words{A: index, B: depth, C: round}}
}

func (a *recycleApp) Name() string { return "recycle" }
func (a *recycleApp) Rounds() int  { return a.rounds }
func (a *recycleApp) Roots(round int) []app.Spawn {
	return []app.Spawn{a.spawn(0, 0, uint64(round))}
}

// Execute reads its payload afresh for every child: the contract is that
// it stays what it was until Execute returns, through the task's own
// emits, the first of which reuses the node the task arrived in.
func (a *recycleApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	load := func() (index, depth, round uint64) {
		if p, ok := data.(*recyclePayload); ok {
			return p.index, p.depth, p.round
		}
		p := data.(*app.Words)
		return p.A, p.B, p.C
	}
	index, _, _ := load()
	a.seen[index].Add(1)
	for k := 0; k < a.fanout(load()); k++ {
		index, depth, round := load()
		emit(a.spawn(4*index+1+uint64(k), depth+1, round))
	}
	return 1
}

// TestRecycleExactlyOnce runs recycleApp under every strategy that
// shapes a node's life differently — Steal (thieves machine-wide, no
// phases), Hybrid on two domains (thieves and planned moves), RIPS
// Eager (children listed across tasks, bulk takes from the bottom) —
// with inline and with Data payloads, and requires every task of every
// round to have executed exactly once. Run it with -cpu 1,2,4, under
// -race and under -race -tags ripsperturb: a node written by anybody
// but its holder is a data race on its fields.
func TestRecycleExactlyOnce(t *testing.T) {
	const rounds = 4
	for _, boxed := range []bool{false, true} {
		a := newRecycleApp(rounds, boxed)
		want := make([]int32, recycleIDs)
		var tasks int64
		for round := uint64(0); round < rounds; round++ {
			a.walk(round, func(index uint64) { want[index]++; tasks++ })
		}
		for _, cfg := range []Config{
			{Strategy: Steal},
			{Strategy: Hybrid, Domains: 2},
			{Strategy: RIPS, Local: ripsrt.Eager},
		} {
			name := fmt.Sprintf("%s boxed=%v", cfg.Strategy, boxed)
			cfg.Topo, cfg.App, cfg.Seed = topo.NewMesh(2, 2), a, 7
			for i := range a.seen {
				a.seen[i].Store(0)
			}
			res := mustRun(t, cfg)
			if res.Generated != tasks || res.Executed != tasks {
				t.Errorf("%s: generated %d and executed %d of %d tasks", name, res.Generated, res.Executed, tasks)
			}
			bad := 0
			for i := range want {
				if got := a.seen[i].Load(); got != want[i] {
					if bad++; bad <= 5 {
						t.Errorf("%s: task %d executed %d times, want %d", name, i, got, want[i])
					}
				}
			}
			if bad > 5 {
				t.Errorf("%s: %d task indices off in all", name, bad)
			}
		}
	}
}

// TestRecycleReleasesPayload: a node at rest pins nothing of the
// application's. Every Data payload of a finished run must be
// collectable while the run and the kit it retired — the slabs with
// every node the run used, the deque rings and the phase scratch with
// whatever stale pointers they hold — are still reachable. The kit is
// held here and not only by the weak list, where the collection that
// frees the payloads would free it too and prove nothing.
func TestRecycleReleasesPayload(t *testing.T) {
	for _, cfg := range []Config{
		{Strategy: Steal},
		{Strategy: RIPS, Local: ripsrt.Eager},
	} {
		a := &finalizedApp{fanout: 3, depth: 6, freed: make(chan struct{})}
		for level, n := 0, int64(1); level <= a.depth; level, n = level+1, n*int64(a.fanout) {
			a.tasks += n
		}
		cfg.Topo, cfg.App = topo.NewMesh(1, 2), a
		dropIdleKits() // so the run keeps the kit it is built with
		r := newEngineRun(&cfg)
		k := r.kit
		res, err := r.run(goDriver{})
		if err != nil || res.Executed != a.tasks {
			t.Fatalf("%s: executed %d of %d tasks: %v", cfg.Strategy, res.Executed, a.tasks, err)
		}
		if len(k.slabs) == 0 || len(k.rings) != r.n {
			t.Fatalf("%s: the retired kit has %d slabs and %d rings", cfg.Strategy, len(k.slabs), len(k.rings))
		}
		runtime.GC() // finds the payloads unreachable and queues their finalizers
		within(t, a.freed, cfg.Strategy.String()+": every payload finalized with the run and its kit still reachable")
		for _, slab := range k.slabs {
			for _, nd := range slab[:cap(slab)] {
				if nd.data != nil {
					t.Fatalf("%s: a node of the retired kit still holds a payload", cfg.Strategy)
				}
			}
		}
		runtime.KeepAlive(r)
		runtime.KeepAlive(k)
	}
}

// finalizedApp is a uniform tree whose every payload is a heap object
// with a finalizer; freed closes when the last of them has run.
type finalizedApp struct {
	fanout, depth int
	tasks         int64
	finalized     atomic.Int64
	freed         chan struct{}
}

type finalizedPayload struct {
	depth int
	app   *finalizedApp
}

func (a *finalizedApp) spawn(depth int) app.Spawn {
	p := &finalizedPayload{depth: depth, app: a}
	runtime.SetFinalizer(p, func(p *finalizedPayload) {
		if p.app.finalized.Add(1) == p.app.tasks {
			close(p.app.freed)
		}
	})
	return app.Spawn{Data: p}
}

func (a *finalizedApp) Name() string          { return "finalized" }
func (a *finalizedApp) Rounds() int           { return 1 }
func (a *finalizedApp) Roots(int) []app.Spawn { return []app.Spawn{a.spawn(0)} }
func (a *finalizedApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	if p := data.(*finalizedPayload); p.depth < a.depth {
		for k := 0; k < a.fanout; k++ {
			emit(a.spawn(p.depth + 1))
		}
	}
	return 1
}
