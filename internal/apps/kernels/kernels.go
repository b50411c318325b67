// Package kernels provides the workload classes the paper's
// introduction organizes its argument around, beyond the three
// evaluation applications:
//
//   - Gaussian elimination and FFT — the paper's examples of *static*
//     problems ("problems with a predictable structure"), where a
//     compile-time distribution needs no runtime correction;
//   - a multigrid V-cycle — the paper's example of a *dynamic* problem
//     whose parallelism varies wildly between phases.
//
// They are work-model kernels: the round/task structure and per-task
// costs follow the real algorithms' operation counts (the property
// scheduling cares about), while the floating-point payload itself is
// not materialized. Together with N-Queens (irregular dynamic) and the
// GROMOS surrogate (static count, nonuniform cost) they span the
// paper's Section 1 taxonomy, which the exp.Taxonomy experiment turns
// into a table: static scheduling suffices exactly where the paper
// says it does.
//
// All three kernels are real-execution safe: Execute reads only fields
// frozen at construction, carries all per-task state in the task
// payload, and interacts with the runtime exclusively through emit, so
// any number of workers may execute tasks of one shared instance
// concurrently. Each kernel implements app.Counted with its inner-loop
// operation count (work / costPerOp), giving the differential tests a
// summable result that must survive any task placement bit for bit.
package kernels

import (
	"fmt"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/sim"
)

// costPerOp is the virtual compute charged per inner-loop operation,
// on the same scale as the other workloads' calibration.
const costPerOp = 50 * sim.Nanosecond

// Gauss is Gaussian elimination on a dense n x n system: round k
// eliminates column k from rows k+1..n-1, so rounds shrink linearly
// and every task in a round costs the same — the paper's archetype of
// a predictable, static problem.
type Gauss struct {
	n     int
	block int // rows per task
}

// NewGauss returns the elimination workload for an n x n matrix with
// the given row-block size per task.
func NewGauss(n, block int) *Gauss {
	if n < 2 || block < 1 {
		invariant.Violated("kernels: bad gauss parameters n=%d block=%d", n, block)
	}
	return &Gauss{n: n, block: block}
}

func (g *Gauss) Name() string { return fmt.Sprintf("gauss %d", g.n) }

// Rounds is n-1: one per pivot, globally synchronized (row k+1 must be
// fully updated before it can pivot).
func (g *Gauss) Rounds() int { return g.n - 1 }

// BlockDistributed: the matrix rows start block-distributed, like any
// SPMD dense solver.
func (g *Gauss) BlockDistributed() bool { return true }

// gaussTask eliminates rows [lo,hi) against pivot k.
type gaussTask struct {
	k, lo, hi int32
}

// pack puts one field in each inline payload word.
func (t gaussTask) pack() app.Words {
	return app.Words{A: uint64(uint32(t.k)), B: uint64(uint32(t.lo)), C: uint64(uint32(t.hi))}
}

func unpackGauss(w *app.Words) gaussTask {
	return gaussTask{k: int32(w.A), lo: int32(w.B), hi: int32(w.C)}
}

func (g *Gauss) Roots(round int) []app.Spawn {
	k := round
	var out []app.Spawn
	for lo := k + 1; lo < g.n; lo += g.block {
		hi := lo + g.block
		if hi > g.n {
			hi = g.n
		}
		out = append(out, app.Spawn{W: gaussTask{k: int32(k), lo: int32(lo), hi: int32(hi)}.pack(), Size: 12})
	}
	return out
}

func (g *Gauss) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := g.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the task's row-update
// operation count (app.Counted): rows eliminated times the remaining
// matrix width. Summed over a run it must equal the elimination's
// total operation count however tasks were placed.
func (g *Gauss) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	t := unpackGauss(data.(*app.Words))
	rows := int(t.hi - t.lo)
	width := g.n - int(t.k) // remaining columns incl. the pivot column
	ops := rows * width
	return sim.Time(ops) * costPerOp, int64(ops)
}

// FFT is an n-point radix-2 FFT: log2(n) rounds of n/2 butterflies,
// grouped into blocks — perfectly uniform tasks, the other static
// archetype.
type FFT struct {
	logN  int
	block int // butterflies per task
}

// NewFFT returns the transform workload for 2^logN points.
func NewFFT(logN, block int) *FFT {
	if logN < 1 || logN > 30 || block < 1 {
		invariant.Violated("kernels: bad fft parameters logN=%d block=%d", logN, block)
	}
	return &FFT{logN: logN, block: block}
}

func (f *FFT) Name() string           { return fmt.Sprintf("fft 2^%d", f.logN) }
func (f *FFT) Rounds() int            { return f.logN }
func (f *FFT) BlockDistributed() bool { return true }

type fftTask struct {
	count int32 // butterflies in this task
}

func (t fftTask) pack() app.Words { return app.Words{A: uint64(uint32(t.count))} }

func unpackFFT(w *app.Words) fftTask { return fftTask{count: int32(w.A)} }

func (f *FFT) Roots(round int) []app.Spawn {
	half := 1 << (f.logN - 1)
	var out []app.Spawn
	for lo := 0; lo < half; lo += f.block {
		c := f.block
		if lo+c > half {
			c = half - lo
		}
		out = append(out, app.Spawn{W: fftTask{count: int32(c)}.pack(), Size: 8})
	}
	return out
}

func (f *FFT) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := f.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the task's flop count
// (app.Counted): 10 flops per butterfly.
func (f *FFT) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	ops := 10 * int64(unpackFFT(data.(*app.Words)).count) // a butterfly is ~10 flops
	return sim.Time(ops) * costPerOp, ops
}

// Multigrid is one V-cycle of an adaptive 2D multigrid solver on an
// n x n grid: smoothing sweeps descend through coarser and coarser
// grids and climb back, so the available parallelism collapses by 4x
// per level and recovers; and the solver adaptively over-smooths a
// refined patch (rows [n/4, n/4+n/8), where the error is assumed
// concentrated), so per-row cost is nonuniform in a way no fixed
// distribution matches — the paper's example of a dynamic "multi-grid
// matrix operation".
type Multigrid struct {
	n      int // finest grid side, must be a power of two
	levels int
	block  int // grid rows per task
}

// refineFactor is how many extra smoothing passes the refined patch
// receives; each pass is spawned as a child task at runtime, which is
// what makes the workload dynamic — the extra tasks appear wherever
// the patch rows currently live.
const refineFactor = 8

// NewMultigrid returns a V-cycle on an n x n finest grid with the
// given number of levels.
func NewMultigrid(n, levels, block int) *Multigrid {
	if n < 2 || n&(n-1) != 0 || levels < 1 || block < 1 || n>>(levels-1) < 2 {
		invariant.Violated("kernels: bad multigrid parameters n=%d levels=%d block=%d", n, levels, block)
	}
	return &Multigrid{n: n, levels: levels, block: block}
}

func (m *Multigrid) Name() string { return fmt.Sprintf("multigrid %d/%d", m.n, m.levels) }

// BlockDistributed: the finest grid starts block-distributed like any
// SPMD stencil code; what makes the problem dynamic is that the
// coarser levels concentrate the remaining work on ever fewer blocks.
func (m *Multigrid) BlockDistributed() bool { return true }

// Rounds: down the V (levels) and back up (levels-1).
func (m *Multigrid) Rounds() int { return 2*m.levels - 1 }

// level returns the grid side length at round r of the V-cycle.
func (m *Multigrid) level(r int) int {
	if r < m.levels {
		return m.n >> r
	}
	return m.n >> (2*m.levels - 2 - r)
}

type mgTask struct {
	side  int32 // grid side at this level
	lo    int32 // first row of this task
	rows  int32 // rows smoothed by this task
	child bool  // a spawned refinement pass (does not re-spawn)
}

// pack puts lo above side in the first inline payload word, rows in the
// second and the child flag in the third.
func (t mgTask) pack() app.Words {
	w := app.Words{A: uint64(uint32(t.lo))<<32 | uint64(uint32(t.side)), B: uint64(uint32(t.rows))}
	if t.child {
		w.C = 1
	}
	return w
}

func unpackMG(w *app.Words) mgTask {
	return mgTask{side: int32(w.A), lo: int32(w.A >> 32), rows: int32(w.B), child: w.C != 0}
}

func (m *Multigrid) Roots(round int) []app.Spawn {
	side := m.level(round)
	var out []app.Spawn
	for lo := 0; lo < side; lo += m.block {
		c := m.block
		if lo+c > side {
			c = side - lo
		}
		out = append(out, app.Spawn{W: mgTask{side: int32(side), lo: int32(lo), rows: int32(c)}.pack(), Size: 12})
	}
	return out
}

func (m *Multigrid) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := m.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the task's smoothing flop
// count (app.Counted). Refinement children contribute their own flops
// when they execute, so the aggregate counts every smoothing pass the
// adaptive solver really performed — including the dynamically spawned
// ones, which is exactly where a dropped child task would surface.
func (m *Multigrid) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	t := unpackMG(data.(*app.Words))
	side := int(t.side)
	// A 5-point smoothing sweep is ~6 flops per point.
	work := 6 * int(t.rows) * side
	if !t.child {
		// Adaptive refinement: rows overlapping the patch spawn
		// refineFactor-1 extra smoothing passes as child tasks.
		patchLo, patchHi := side/4, side/4+side/8
		lo, hi := int(t.lo), int(t.lo)+int(t.rows)
		if lo < patchHi && hi > patchLo {
			oLo, oHi := max(lo, patchLo), min(hi, patchHi)
			for pass := 1; pass < refineFactor; pass++ {
				emit(app.Spawn{
					W:    mgTask{side: t.side, lo: int32(oLo), rows: int32(oHi - oLo), child: true}.pack(),
					Size: 12,
				})
			}
		}
	}
	return sim.Time(work) * costPerOp, int64(work)
}
