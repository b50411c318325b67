package puzzle

import (
	"testing"

	"rips/internal/app"
	"rips/internal/sim"
)

func TestGoalProperties(t *testing.T) {
	for _, w := range []int{2, 3, 4} {
		g := Goal(w)
		if g.manhattan() != 0 {
			t.Errorf("width %d: goal heuristic = %d", w, g.manhattan())
		}
		if int(g.blank) != w*w-1 {
			t.Errorf("width %d: blank at %d", w, g.blank)
		}
		for p := 0; p < w*w-1; p++ {
			if got := g.tile(int8(p)); got != int8(p+1) {
				t.Errorf("width %d: tile(%d) = %d", w, p, got)
			}
		}
	}
}

func TestGoalPanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Goal(%d) did not panic", w)
				}
			}()
			Goal(w)
		}()
	}
}

func TestApplyIsReversibleAndTracksHeuristic(t *testing.T) {
	b := Scramble(4, 20, 7)
	h := b.manhattan()
	for _, m := range b.moves() {
		nb, dh := b.apply(m)
		if nb.manhattan() != h+dh {
			t.Errorf("incremental heuristic wrong: %d vs %d", nb.manhattan(), h+dh)
		}
		back, dh2 := nb.apply(b.blank)
		if back.cells != b.cells || back.blank != b.blank {
			t.Error("apply not reversible")
		}
		if dh+dh2 != 0 {
			t.Errorf("heuristic deltas do not cancel: %d + %d", dh, dh2)
		}
	}
}

func TestMovesCount(t *testing.T) {
	// Corner: 2 moves; edge: 3; interior: 4 (for the blank).
	g := Goal(4) // blank at 15, a corner
	if len(g.moves()) != 2 {
		t.Errorf("corner blank has %d moves", len(g.moves()))
	}
}

func TestScrambleSolvableAtWalkParity(t *testing.T) {
	for _, walk := range []int{0, 5, 12, 21} {
		b := Scramble(3, walk, 42)
		a := New("t", b, 4)
		if a.SolutionDepth() > walk {
			t.Errorf("walk %d: solution depth %d exceeds walk length", walk, a.SolutionDepth())
		}
		if (a.SolutionDepth()-walk)%2 != 0 {
			t.Errorf("walk %d: depth %d has wrong parity", walk, a.SolutionDepth())
		}
	}
}

func TestScrambleDeterministic(t *testing.T) {
	a := Scramble(4, 30, 9)
	b := Scramble(4, 30, 9)
	if a.cells != b.cells || a.blank != b.blank {
		t.Error("Scramble not deterministic")
	}
}

func TestBoundsStrictlyIncrease(t *testing.T) {
	a := New("t", Scramble(4, 30, 5), 6)
	bs := a.Bounds()
	if len(bs) == 0 {
		t.Fatal("no bounds")
	}
	start := a.start.manhattan()
	if int(bs[0]) != start {
		t.Errorf("first bound %d, want heuristic %d", bs[0], start)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Errorf("bounds not increasing: %v", bs)
		}
		if (bs[i]-bs[i-1])%2 != 0 {
			t.Errorf("bound parity broken: %v", bs)
		}
	}
	if int(bs[len(bs)-1]) != a.SolutionDepth() {
		t.Errorf("last bound %d != depth %d", bs[len(bs)-1], a.SolutionDepth())
	}
}

// TestDecompositionMatchesPlainSearch: for each round, the total nodes
// visited by the task tree must equal a plain bounded DFS, independent
// of the split depth.
func TestDecompositionMatchesPlainSearch(t *testing.T) {
	b := Scramble(3, 16, 3)
	plain := New("plain", b, 0)
	for _, split := range []int{2, 4, 7} {
		a := New("t", b, split)
		p0 := app.Measure(plain)
		p1 := app.Measure(a)
		if p0.Rounds[len(p0.Rounds)-1].Work == 0 {
			t.Fatal("degenerate profile")
		}
		// Work differs only by spawn bookkeeping; compare leaf search
		// volume per round via a lower bound: every round's work must
		// be within spawn overhead of the plain one.
		for r := range p0.Rounds {
			w0, w1 := p0.Rounds[r].Work, p1.Rounds[r].Work
			spawnSlack := sim.Time(p1.Rounds[r].Tasks) * (spawnCost + CostPerNode)
			if w1 < w0-spawnSlack || w1 > w0+spawnSlack {
				t.Errorf("split %d round %d: work %v vs plain %v (slack %v)", split, r, w1, w0, spawnSlack)
			}
		}
	}
}

func TestRootsCarryRoundBounds(t *testing.T) {
	a := New("t", Scramble(4, 24, 8), 6)
	for r := 0; r < a.Rounds(); r++ {
		roots := a.Roots(r)
		if len(roots) != 1 {
			t.Fatalf("round %d: %d roots", r, len(roots))
		}
		if _, _, _, _, bound := unpack(&roots[0].W); bound != a.bounds[r] {
			t.Errorf("round %d: bound %d, want %d", r, bound, a.bounds[r])
		}
	}
}

func TestExecutePrunesOverBound(t *testing.T) {
	a := New("t", Scramble(4, 24, 8), 6)
	nd := pack(a.start, 100, int16(a.start.manhattan()), 0, a.bounds[0])
	emitted := 0
	w := a.Execute(&nd, func(app.Spawn) { emitted++ })
	if emitted != 0 {
		t.Errorf("pruned node emitted %d children", emitted)
	}
	if w != CostPerNode {
		t.Errorf("pruned node work = %v", w)
	}
}

func TestEarlyRoundsNearlySerial(t *testing.T) {
	// The paper's observation: early IDA* iterations have almost no
	// parallelism. The first round's task count must be tiny compared
	// to the last round's.
	a := New("t", Scramble(4, 40, 11), 8)
	p := app.Measure(a)
	first, last := p.Rounds[0].Tasks, p.Rounds[len(p.Rounds)-1].Tasks
	if first*4 > last {
		t.Errorf("first round %d tasks vs last %d — expected strong growth", first, last)
	}
}

func TestConfigsOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size configurations take seconds to profile")
	}
	cfgs := Configs()
	if len(cfgs) != 3 {
		t.Fatalf("%d configs", len(cfgs))
	}
	var works [3]float64
	for i, a := range cfgs {
		p := app.Measure(a)
		works[i] = p.Work.Seconds()
	}
	if !(works[0] < works[1] && works[1] < works[2]) {
		t.Errorf("config works not increasing: %v", works)
	}
	if works[2] < 3*works[1] {
		t.Errorf("config #3 (%.1fs) should dwarf #2 (%.1fs)", works[2], works[1])
	}
}
