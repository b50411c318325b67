//ripslint:allow-file wallclock the yardstick times a fixed kernel in real time to learn how fast the machine is at that moment

package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The reference box is a 2-vCPU VM whose cores are hyperthreads shared
// with other tenants. For minutes at a time a busy sibling slows every
// workload here by 1.4x to 1.9x, then stops; no statistic of the job
// times alone survives that, because whole runs fall on one side. So
// the harness reads a yardstick between stretches of jobs: a kernel
// that belongs to the benchmark, not to the system under test, and
// that a busy sibling slows about as much as it slows the workloads.
// Times are then reported at reference speed: multiplied by
// yardRefMS / yardstick. A change to the repository cannot move the
// yardstick, so two commits are scaled alike.
//
// The kernel mixes a bitboard 9-Queens count (instruction-parallel,
// slowed 1.6x to 2.1x by a busy sibling) with a serial xorshift chain
// (latency-bound, not slowed at all) at three to one by quiet time.
// Probes on the reference box put the workloads' own slowdown at 0.67
// to 0.85 of the Queens count's. Over 240 s the medians of successive
// 30-job blocks ranged over 91% of their median for sim_paper's job and
// 62% for par_fine's; scaled by this mix they ranged over 12-20% and
// 9-13%.

// yardRefMS is the kernel's time on the quiet reference box: the speed
// every reported time is scaled to.
const yardRefMS = 0.525

const (
	yardQueens = 8     // 9-Queens counts per repetition
	yardChain  = 66000 // xorshift steps per repetition
	yardReps   = 5     // repetitions per reading; the median is kept
)

var yardSink atomic.Uint64

// queens counts the placements completing a board, one bit per column.
func queens(full, cols, left, right uint32) uint64 {
	if cols == full {
		return 1
	}
	var n uint64
	for free := full &^ (cols | left | right); free != 0; free &= free - 1 {
		bit := free & -free
		n += queens(full, cols|bit, (left|bit)<<1&full, (right|bit)>>1)
	}
	return n
}

// yardKernel runs the kernel once and returns its time in ms.
func yardKernel() float64 {
	t0 := time.Now()
	var n uint64
	for k := 0; k < yardQueens; k++ {
		n += queens(1<<9-1, 0, 0, 0)
	}
	x := uint64(88172645463325252)
	for k := 0; k < yardChain; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := ms(time.Since(t0))
	yardSink.Add(n + x) // keep the work observable
	return d
}

// yardstick reads the machine's present speed on procs threads at
// once, as the workload's jobs use them, and returns the mean of the
// threads' median kernel times.
func yardstick(procs int) float64 {
	readings := make([]float64, procs)
	var wg sync.WaitGroup
	for g := range readings {
		wg.Add(1)
		go func(out *float64) {
			defer wg.Done()
			reps := make([]float64, yardReps)
			for r := range reps {
				reps[r] = yardKernel()
			}
			*out = median(reps)
		}(&readings[g])
	}
	wg.Wait()
	sum := 0.0
	for _, r := range readings {
		sum += r
	}
	return sum / float64(procs)
}
