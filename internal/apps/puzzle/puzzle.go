// Package puzzle is the paper's second test application: iterative
// deepening A* (IDA*, Korf 1985) on the sliding-tile puzzle, with the
// 15-puzzle and three start configurations as in the paper. The search
// is real — boards, Manhattan-distance heuristic and the bounded DFS
// are all executed — and each IDA* iteration is one globally
// synchronized round, which is exactly the structure the paper blames
// for this workload's reduced effective parallelism.
//
// The final round completes the whole f <= bound search space rather
// than stopping at the first solution; this keeps runs deterministic
// across schedulers (a standard simplification in parallel IDA*
// studies — the paper's own runs likewise execute whole iterations
// between synchronizations).
package puzzle

import (
	"math/rand"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/sim"
)

// CostPerNode is the virtual compute charged per search node; 3 us
// puts the paper's three configurations in Table I's time range.
const CostPerNode = 3 * sim.Microsecond

// spawnCost is the bookkeeping work to emit one child task.
const spawnCost = 5 * sim.Microsecond

// Board is a width x width sliding puzzle, tiles packed 4 bits per
// cell (so width <= 4); 0 is the blank.
type Board struct {
	cells uint64
	blank int8
	width int8
}

// tile returns the tile at position p.
func (b Board) tile(p int8) int8 { return int8(b.cells >> (uint(p) * 4) & 0xF) }

// setTile places tile t at position p.
func (b *Board) setTile(p, t int8) {
	shift := uint(p) * 4
	b.cells = b.cells&^(0xF<<shift) | uint64(t)<<shift
}

// Goal returns the solved board: tiles 1..w*w-1 in order, blank last.
func Goal(width int) Board {
	if width < 2 || width > 4 {
		invariant.Violated("puzzle: width %d out of range", width)
	}
	b := Board{width: int8(width)}
	n := int8(width * width)
	for p := int8(0); p < n-1; p++ {
		b.setTile(p, p+1)
	}
	b.blank = n - 1
	return b
}

// manhattan returns the sum of tile Manhattan distances to goal.
func (b Board) manhattan() int {
	w := int(b.width)
	h := 0
	for p := 0; p < w*w; p++ {
		t := int(b.tile(int8(p)))
		if t == 0 {
			continue
		}
		gp := t - 1
		dr := p/w - gp/w
		if dr < 0 {
			dr = -dr
		}
		dc := p%w - gp%w
		if dc < 0 {
			dc = -dc
		}
		h += dr + dc
	}
	return h
}

// moves lists the blank's destination cells.
func (b Board) moves() []int8 {
	w := b.width
	p := b.blank
	out := make([]int8, 0, 4)
	if p >= w {
		out = append(out, p-w)
	}
	if p < w*w-w {
		out = append(out, p+w)
	}
	if p%w != 0 {
		out = append(out, p-1)
	}
	if p%w != w-1 {
		out = append(out, p+1)
	}
	return out
}

// apply slides the tile at cell src into the blank, returning the new
// board and the heuristic delta.
func (b Board) apply(src int8) (Board, int) {
	t := b.tile(src)
	w := int(b.width)
	gp := int(t) - 1
	dist := func(p int) int {
		dr := p/w - gp/w
		if dr < 0 {
			dr = -dr
		}
		dc := p%w - gp%w
		if dc < 0 {
			dc = -dc
		}
		return dr + dc
	}
	nb := b
	nb.setTile(b.blank, t)
	nb.setTile(src, 0)
	nb.blank = src
	return nb, dist(int(b.blank)) - dist(int(src))
}

// Scramble returns the board reached by a walk of n random moves from
// the goal (never undoing the previous move), so it is always solvable
// with optimal depth of the same parity as the walk.
func Scramble(width, n int, seed int64) Board {
	rng := rand.New(rand.NewSource(seed))
	b := Goal(width)
	prev := int8(-1)
	for i := 0; i < n; i++ {
		ms := b.moves()
		// Filter the inverse of the previous move.
		k := 0
		for _, m := range ms {
			if m != prev {
				ms[k] = m
				k++
			}
		}
		ms = ms[:k]
		pick := ms[rng.Intn(len(ms))]
		prev = b.blank
		b, _ = b.apply(pick)
	}
	return b
}

// nodeSize is the serialized payload size in bytes.
const nodeSize = 16

// pack lays a task payload out in the inline payload words. A payload
// is a search-frontier state of one iteration: the board b, the moves
// so far g, the Manhattan heuristic h, the blank's previous cell prev
// (to avoid 2-cycles; -1 at the root) and this iteration's f bound. The
// cells fill the first word; blank, width and prev take a byte each of
// the second with g and h in its upper half; the bound is the third.
// pack and unpack deal in the fields, not in a struct of them: five
// fields are more than the compiler keeps in registers, and a struct
// built only to be packed, or unpacked only to be read, goes through the
// stack in narrow stores and wide loads.
func pack(b Board, g, h int16, prev int8, bound int16) app.Words {
	return app.Words{
		A: b.cells,
		B: uint64(uint8(b.blank)) | uint64(uint8(b.width))<<8 | uint64(uint8(prev))<<16 |
			uint64(uint16(g))<<32 | uint64(uint16(h))<<48,
		C: uint64(uint16(bound)),
	}
}

func unpack(w *app.Words) (b Board, g, h int16, prev int8, bound int16) {
	return Board{cells: w.A, blank: int8(w.B), width: int8(w.B >> 8)},
		int16(w.B >> 32), int16(w.B >> 48), int8(w.B >> 16), int16(w.C)
}

// App runs IDA* from one start configuration.
type App struct {
	name   string
	start  Board
	budget int
	bounds []int16 // f bound of each iteration
	depth  int     // optimal solution length
}

// New builds the workload, running a sequential IDA* to discover the
// iteration bounds (and thereby the solution depth). budget caps the
// remaining search depth (bound - g) a single task may carry: states
// closer to the root than that are expanded into child tasks. A depth
// budget — rather than a fixed split depth — bounds every leaf task's
// subtree to roughly branching^budget nodes, keeping grain sizes in
// the paper's low-millisecond range across all iterations.
func New(name string, start Board, budget int) *App {
	if budget < 0 {
		invariant.Violated("puzzle: negative split budget")
	}
	a := &App{name: name, start: start, budget: budget}
	h := int16(start.manhattan())
	bound := h
	for {
		a.bounds = append(a.bounds, bound)
		found, next := probe(start, 0, h, bound, -1)
		if found {
			a.depth = int(bound)
			break
		}
		if next == maxF {
			invariant.Violated("puzzle: search space exhausted without a solution (unsolvable board?)")
		}
		bound = next
	}
	return a
}

const maxF = int16(1<<15 - 1)

// probe is the discovery-time IDA* iteration: reports whether a
// solution exists within bound and the next bound otherwise. Unlike
// Execute, it may stop at the first solution — only the bound sequence
// matters here.
func probe(b Board, g, h, bound int16, prev int8) (bool, int16) {
	f := g + h
	if f > bound {
		return false, f
	}
	if h == 0 {
		return true, f
	}
	next := maxF
	for _, m := range b.moves() {
		if m == prev {
			continue
		}
		nb, dh := b.apply(m)
		found, nf := probe(nb, g+1, h+int16(dh), bound, b.blank)
		if found {
			return true, nf
		}
		if nf < next {
			next = nf
		}
	}
	return false, next
}

// Name returns the configuration name, e.g. "15-puzzle #3".
func (a *App) Name() string { return a.name }

// Rounds is the number of IDA* iterations.
func (a *App) Rounds() int { return len(a.bounds) }

// SolutionDepth returns the optimal solution length.
func (a *App) SolutionDepth() int { return a.depth }

// Bounds returns the f bound of every iteration.
func (a *App) Bounds() []int16 { return append([]int16(nil), a.bounds...) }

// Roots seeds round r with the start state at that round's bound.
func (a *App) Roots(round int) []app.Spawn {
	return []app.Spawn{{
		W:    pack(a.start, 0, int16(a.start.manhattan()), -1, a.bounds[round]),
		Size: nodeSize,
	}}
}

// Execute expands a frontier state into child tasks until the split
// depth; beyond it, the task runs the bounded DFS to completion and is
// charged its real node count.
func (a *App) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := a.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the number of goal states the
// task's bounded DFS reached (app.Counted). Iterations below the
// optimal bound contribute 0 everywhere; the final iteration's total
// is the number of distinct optimal solution paths — a quantity every
// scheduling backend must reproduce exactly.
func (a *App) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	b, g, h, prev, bound := unpack(data.(*app.Words))
	if g+h > bound {
		return CostPerNode, 0 // pruned on arrival
	}
	if int(bound)-int(g) > a.budget && h != 0 {
		children := 0
		for _, m := range b.moves() {
			if m == prev {
				continue
			}
			nb, dh := b.apply(m)
			if cg, ch := g+1, h+int16(dh); cg+ch <= bound {
				emit(app.Spawn{W: pack(nb, cg, ch, b.blank, bound), Size: nodeSize})
				children++
			}
		}
		return CostPerNode + sim.Time(children)*spawnCost, 0
	}
	nodes, goals := search(b, g, h, bound, prev)
	return sim.Time(nodes) * CostPerNode, int64(goals)
}

// search is the full bounded DFS (no early exit), returning the number
// of nodes visited (including this one) and of goal states reached.
func search(b Board, g, h, bound int16, prev int8) (nodes, goals uint64) {
	if g+h > bound {
		return 1, 0
	}
	if h == 0 {
		return 1, 1
	}
	nodes = 1
	for _, m := range b.moves() {
		if m == prev {
			continue
		}
		nb, dh := b.apply(m)
		n, s := search(nb, g+1, h+int16(dh), bound, b.blank)
		nodes += n
		goals += s
	}
	return nodes, goals
}

// Configs returns the paper's three 15-puzzle configurations, realized
// as deterministic scrambles of increasing difficulty (the paper's
// start states are not published). They are calibrated to the paper's
// Table I/II workloads: sequential work of roughly 10 s, 30 s and
// 110 s, with configuration #3 dwarfing #1 and #2 and every
// configuration spending its first iterations nearly serial. The
// depth budget of 24 keeps leaf-task grains in the low milliseconds;
// our decomposition is therefore finer than the paper's (tens of
// thousands of tasks rather than thousands), which EXPERIMENTS.md
// discusses.
func Configs() []*App {
	return []*App{Config(1), Config(2), Config(3)}
}

// Config returns one of the paper's configurations (1-based) without
// constructing the others — construction runs the sequential
// bound-discovery IDA*, which is costly for the larger configs, so
// callers needing a single configuration should not pay for all three.
func Config(i int) *App {
	switch i {
	case 1:
		return New("15-puzzle #1", Scramble(4, 48, 401), 24)
	case 2:
		return New("15-puzzle #2", Scramble(4, 60, 404), 24)
	case 3:
		return New("15-puzzle #3", Scramble(4, 56, 402), 24)
	}
	invariant.Violated("puzzle: config %d out of range 1..3", i)
	return nil
}
