package nqueens

import (
	"testing"

	"rips/internal/app"
	"rips/internal/sim"
)

// Known solution counts (OEIS A000170).
var known = map[int]uint64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
	9: 352, 10: 724, 11: 2680, 12: 14200,
}

func TestCountMatchesKnownValues(t *testing.T) {
	for n, want := range known {
		if got, _ := Count(n); got != want {
			t.Errorf("Count(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestDecompositionPreservesWork: the task tree (split at any depth)
// must visit exactly the same number of search nodes as the plain DFS,
// and emit leaf payloads covering the whole space.
func TestDecompositionPreservesWork(t *testing.T) {
	for _, n := range []int{6, 8, 10} {
		_, directNodes := Count(n)
		for _, split := range []int{0, 1, 2, 3, 4} {
			a := New(n, split)
			p := app.Measure(a)
			// Separate expansion bookkeeping from real search work:
			// leaf work is CostPerNode * (nodes+1) each; expansion
			// tasks charge CostPerNode + children*spawnCost. Recompute
			// the exact expected total by walking the same tree.
			wantWork := expectedWork(n, split)
			if p.Work != wantWork {
				t.Errorf("n=%d split=%d: profile work %v, want %v", n, split, p.Work, wantWork)
			}
			// And the real search result must be intact.
			sols := countViaTasks(a)
			if sols != known[n] {
				t.Errorf("n=%d split=%d: task-based count = %d, want %d", n, split, sols, known[n])
			}
			_ = directNodes
		}
	}
}

// countViaTasks executes the app's tasks and sums leaf solutions.
func countViaTasks(a *App) uint64 {
	full := uint32(1<<a.n) - 1
	var total uint64
	stack := a.Roots(0)
	for len(stack) > 0 {
		w := stack[len(stack)-1].W
		s := unpack(&w)
		stack = stack[:len(stack)-1]
		if int(s.Row) < a.split && int(s.Row) < a.n {
			a.Execute(&w, func(sp app.Spawn) { stack = append(stack, sp) })
			continue
		}
		sols, _ := count(full, s.Cols, s.LD, s.RD)
		total += sols
	}
	return total
}

// expectedWork recomputes the total profile work independently.
func expectedWork(n, split int) sim.Time {
	full := uint32(1<<n) - 1
	var walk func(s state) sim.Time
	walk = func(s state) sim.Time {
		if int(s.Row) < split && int(s.Row) < n {
			w := CostPerNode
			for free := full &^ (s.Cols | s.LD | s.RD); free != 0; {
				bit := free & (-free)
				free ^= bit
				w += spawnCost
				w += walk(state{Row: s.Row + 1, Cols: s.Cols | bit, LD: (s.LD | bit) << 1, RD: (s.RD | bit) >> 1})
			}
			return w
		}
		_, nodes := count(full, s.Cols, s.LD, s.RD)
		return CostPerNode + sim.Time(nodes)*CostPerNode
	}
	return walk(state{})
}

func TestTaskCountsGrowWithDepth(t *testing.T) {
	prev := 0
	for _, split := range []int{1, 2, 3} {
		p := app.Measure(New(10, split))
		if p.Tasks <= prev {
			t.Errorf("split %d: %d tasks, not more than %d", split, p.Tasks, prev)
		}
		prev = p.Tasks
	}
}

func TestRoundsAndRoots(t *testing.T) {
	a := New(8, 2)
	if a.Rounds() != 1 {
		t.Errorf("Rounds = %d", a.Rounds())
	}
	roots := a.Roots(0)
	if len(roots) != 1 || roots[0].Size != stateSize {
		t.Errorf("Roots = %+v", roots)
	}
	if a.Name() != "8-queens" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestGrainSizesIrregular(t *testing.T) {
	// The paper chose N-Queens because grain sizes are unpredictable;
	// verify the leaf work actually varies by an order of magnitude.
	a := New(10, 4)
	var min, max sim.Time
	stack := a.Roots(0)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st := unpack(&s.W)
		w := a.Execute(&s.W, func(sp app.Spawn) { stack = append(stack, sp) })
		if int(st.Row) >= a.split { // leaf
			if min == 0 || w < min {
				min = w
			}
			if w > max {
				max = w
			}
		}
	}
	if max < 10*min {
		t.Errorf("leaf grains too uniform: min=%v max=%v", min, max)
	}
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 0) },
		func() { New(21, 0) },
		func() { New(8, -1) },
		func() { New(8, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("New did not panic")
				}
			}()
			f()
		}()
	}
}
