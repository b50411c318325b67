package par

import (
	"sync"
	"time"

	"rips/internal/topo"
)

// MeasureSystemPhase measures the mean stop-the-world cost of one RIPS
// system phase under a controlled, maximally skewed load: even workers
// hold 2*tasksPerWorker synthetic tasks, odd workers none, so every
// phase plans and applies a heavy migration. It drives the real phase
// protocol (epoch barrier, planner, leader apply) for the given number
// of phases and returns the mean phase time.
//
// This is the measurement behind bench's par.system_phase_us layer
// metric and mirrors BenchmarkSystemPhase: unlike a full app run it
// cannot under-measure on few cores, where a fast worker drains a
// small workload before any unbalanced phase fires.
//
// serial is ignored and the second result is always zero: there is one
// way to apply a plan. Both stay only because bench/ compiles against them.
func MeasureSystemPhase(workers, tasksPerWorker, phases int, serial bool) (time.Duration, int64) {
	cfg := Config{Topo: topo.SquarishMesh(workers)}
	r := newEngineRun(&cfg)
	load := syntheticTasks(2 * tasksPerWorker)
	if phases < 1 {
		phases = 1
	}
	for p := 0; p < phases; p++ {
		r.fillSkewed(load)
		r.phaseOnce()
	}
	return r.sysTime / time.Duration(phases), 0
}

// syntheticTasks returns n distinct empty tasks. A system phase moves
// pointers and never looks behind them, so one set serves every worker
// and every phase of a measurement.
func syntheticTasks(n int) []*node {
	nodes := make([]node, n)
	ptrs := make([]*node, n)
	for i := range nodes {
		ptrs[i] = &nodes[i]
	}
	return ptrs
}

// fillSkewed empties every deque and hands each even worker the whole
// load. Single-threaded, between phases.
func (r *engineRun) fillSkewed(load []*node) {
	for _, w := range r.workers {
		for w.d.pop() != nil {
		}
		if w.id%2 == 0 {
			w.d.push(load...)
		}
	}
}

// phaseOnce runs one system phase with every worker on a goroutine of
// its own, the way a run's workers cross it.
func (r *engineRun) phaseOnce() {
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *engineWorker) {
			defer wg.Done()
			var point int64
			r.phaseStep(w, &point)
		}(w)
	}
	wg.Wait()
}
