// Package nqueens is the paper's first test application: exhaustive
// search counting all solutions of the N-Queens problem. The search is
// real — tasks carry partial board states and the leaves run an actual
// bitmask depth-first search — and the virtual work charged to the
// simulator is proportional to the number of search-tree nodes the
// task really visited, so grain sizes are exactly as irregular and
// unpredictable as the paper describes.
package nqueens

import (
	"fmt"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/sim"
)

// CostPerNode is the virtual compute charged per search-tree node.
// 2 us/node calibrated against the paper's Paragon numbers: it puts
// sequential 15-Queens near 330 s, reproducing Table I's 10.9 s
// 32-processor execution time at 95% efficiency.
const CostPerNode = 2 * sim.Microsecond

// spawnCost is the bookkeeping work to generate one child task.
const spawnCost = 5 * sim.Microsecond

// state is a partial placement: queens fixed on rows [0, Row).
type state struct {
	Row  int8
	Cols uint32 // columns occupied
	LD   uint32 // "left" diagonals occupied, shifted per row
	RD   uint32 // "right" diagonals occupied
}

// stateSize is the serialized size of a task payload in bytes.
const stateSize = 16

// pack lays the placement out in the inline payload words: Row above
// Cols in the first, LD above RD in the second.
func (s state) pack() app.Words {
	return app.Words{A: uint64(uint8(s.Row))<<32 | uint64(s.Cols), B: uint64(s.LD)<<32 | uint64(s.RD)}
}

func unpack(w *app.Words) state {
	return state{Row: int8(w.A >> 32), Cols: uint32(w.A), LD: uint32(w.B >> 32), RD: uint32(w.B)}
}

// App enumerates all N-Queens solutions.
type App struct {
	n     int
	split int
}

// New returns the N-Queens workload. splitDepth is the row depth at
// which subtrees stop being split into tasks and run to completion
// inside one task; depth 4 yields task counts in the paper's range
// (thousands for N = 13..15). New panics on unusable parameters.
func New(n, splitDepth int) *App {
	if n < 1 || n > 20 {
		invariant.Violated("nqueens: board size %d out of range", n)
	}
	if splitDepth < 0 || splitDepth > n {
		invariant.Violated("nqueens: split depth %d out of range for n=%d", splitDepth, n)
	}
	return &App{n: n, split: splitDepth}
}

// Name returns e.g. "13-queens".
func (a *App) Name() string { return fmt.Sprintf("%d-queens", a.n) }

// Rounds is 1: a single task pool with no global synchronization.
func (a *App) Rounds() int { return 1 }

// Roots returns the single root task (empty board).
func (a *App) Roots(round int) []app.Spawn {
	return []app.Spawn{{W: state{}.pack(), Size: stateSize}}
}

// Execute expands a partial placement one row (emitting the children
// as tasks) until the split depth, after which it runs the remaining
// subtree to completion.
func (a *App) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := a.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the number of solutions found
// below the task's state (app.Counted); expansion tasks contribute 0,
// leaf tasks the solution count of their whole subtree.
func (a *App) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	s := unpack(data.(*app.Words))
	full := uint32(1<<a.n) - 1
	if int(s.Row) < a.split && int(s.Row) < a.n {
		children := 0
		for free := full &^ (s.Cols | s.LD | s.RD); free != 0; {
			bit := free & (-free)
			free ^= bit
			emit(app.Spawn{
				W: state{
					Row:  s.Row + 1,
					Cols: s.Cols | bit,
					LD:   (s.LD | bit) << 1,
					RD:   (s.RD | bit) >> 1,
				}.pack(),
				Size: stateSize,
			})
			children++
		}
		// Expansion itself costs one node visit plus spawn work.
		return CostPerNode + sim.Time(children)*spawnCost, 0
	}
	solutions, nodes := count(full, s.Cols, s.LD, s.RD)
	return CostPerNode + sim.Time(nodes)*CostPerNode, int64(solutions)
}

// count runs the classic bitmask DFS, returning the number of
// solutions and of tree nodes visited below this state.
func count(full, cols, ld, rd uint32) (solutions, nodes uint64) {
	if cols == full {
		return 1, 0
	}
	for free := full &^ (cols | ld | rd); free != 0; {
		bit := free & (-free)
		free ^= bit
		s, n := count(full, cols|bit, (ld|bit)<<1, (rd|bit)>>1)
		solutions += s
		nodes += n + 1
	}
	return solutions, nodes
}

// Count returns the number of solutions and search-tree nodes for the
// n-queens problem; it is the ground truth the tests validate against.
func Count(n int) (solutions, nodes uint64) {
	if n < 1 || n > 20 {
		invariant.Violated("nqueens: board size %d out of range", n)
	}
	return count(uint32(1<<n)-1, 0, 0, 0)
}

// Solutions re-runs the search reachable from the app's task tree and
// returns the total number of solutions — used by tests to prove the
// task decomposition loses no part of the search space.
func (a *App) Solutions() uint64 {
	s, _ := Count(a.n)
	return s
}
