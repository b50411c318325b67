package cluster

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"rips"
	"rips/internal/app"
)

// idaMember is one member holding the whole of IDA* #1 — 0.8us tasks,
// the grain at which per-task overhead in the execute loop shows.
func idaMember(tb testing.TB) *memberRun {
	a, err := rips.LookupApp("ida", 1)
	if err != nil {
		tb.Fatal(err)
	}
	m := &memberRun{app: a, k: 1}
	m.emit = m.spawn
	return m
}

// TestMemberYieldsPerSlice pins the single-P fairness of the execute
// loop from both sides. A bystander goroutine stands in for the
// member's peer reader: on one P it runs only when the member gives
// the processor up, so its turns count the member's yields. There
// must be about one per yieldSlice of busy time — far more than the
// runtime's own 10ms preemption would grant, far fewer than one per
// task.
func TestMemberYieldsPerSlice(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := idaMember(t)
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
	for round := 0; round < m.app.Rounds(); round++ {
		m.stage(round)
		for tk, ok := m.q.PopFront(); ok; tk, ok = m.q.PopFront() {
			m.execute(tk)
		}
	}
	close(stop)
	<-stopped
	slices, got := int64(m.busy/yieldSlice), turns.Load()
	if got < slices/4 {
		t.Errorf("the bystander ran %d times in %v of execution (%d slices): the member is not yielding every slice", got, m.busy, slices)
	}
	if got > 2*slices+100 && got > m.executed/10 {
		t.Errorf("the bystander ran %d times for %d tasks in %d slices: the member yields per task again", got, m.executed, slices)
	}
}

// TestClusterSingleP runs a whole job on one P: the member that got
// IDA*'s single root shares the processor with its peer reader, the
// coordinator and the other member, and the job must still end with
// the sequential answer and with tasks executed away from their
// origin — system phases interleaved with execution rather than the
// work staying serialised on member 0.
func TestClusterSingleP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node protocol run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nodes := startCluster(t, NewMemTransport(), 2, nil)

	a, err := rips.LookupApp("ida", 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := app.Measure(a)
	res, err := nodes[0].Submit(context.Background(), clusterSpec("ida", 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Canceled {
		t.Fatal("job reported canceled")
	}
	if res.AppResult != prof.Result || res.Executed != int64(prof.Tasks) || res.VirtualWork != prof.Work {
		t.Errorf("result/executed/work = %d/%d/%d, want the sequential %d/%d/%d",
			res.AppResult, res.Executed, res.VirtualWork, prof.Result, prof.Tasks, prof.Work)
	}
	if res.Nonlocal == 0 {
		t.Errorf("nonlocal = 0 over %d phases: the member holding the root never yielded to a system phase", res.Phases)
	}
}

// BenchmarkMemberExecute measures the member's user-phase step — pop,
// execute, spawn, and the yield decision — on one member draining
// IDA* #1 round after round; ns/op is ns per task.
func BenchmarkMemberExecute(b *testing.B) {
	m := idaMember(b)
	round := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, ok := m.q.PopFront()
		if !ok {
			m.stage(round)
			round = (round + 1) % m.app.Rounds()
			t, _ = m.q.PopFront()
		}
		m.execute(t)
	}
}
