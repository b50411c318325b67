package kernels

import (
	"testing"

	"rips/internal/app"
	"rips/internal/sim"
)

func TestGaussStructure(t *testing.T) {
	g := NewGauss(64, 4)
	if g.Rounds() != 63 {
		t.Fatalf("rounds = %d", g.Rounds())
	}
	if !g.BlockDistributed() {
		t.Error("gauss should start block-distributed")
	}
	p := app.Measure(g)
	// Total ops: sum over k of (n-1-k) rows x (n-k) cols.
	want := 0
	for k := 0; k < 63; k++ {
		want += (64 - 1 - k) * (64 - k)
	}
	if p.Work != sim.Time(want)*costPerOp {
		t.Errorf("work = %v, want %v", p.Work, sim.Time(want)*costPerOp)
	}
	// Rounds shrink: the last round has a single task.
	if p.Rounds[0].Tasks <= p.Rounds[62].Tasks {
		t.Errorf("round sizes do not shrink: %d vs %d", p.Rounds[0].Tasks, p.Rounds[62].Tasks)
	}
	if p.Rounds[62].Tasks != 1 {
		t.Errorf("last round has %d tasks", p.Rounds[62].Tasks)
	}
}

func TestGaussUniformWithinRound(t *testing.T) {
	g := NewGauss(32, 2)
	p := app.Measure(g)
	for r, rp := range p.Rounds {
		if rp.Tasks > 1 {
			// All full blocks in a round cost the same; only the tail
			// block may be smaller. MaxTask*tasks >= work always, and
			// for a static problem the ratio stays near 1.
			if float64(rp.MaxTask)*float64(rp.Tasks) > 2*float64(rp.Work) {
				t.Errorf("round %d: grain too skewed for a static problem", r)
			}
		}
	}
}

func TestFFTStructure(t *testing.T) {
	f := NewFFT(10, 16)
	if f.Rounds() != 10 {
		t.Fatalf("rounds = %d", f.Rounds())
	}
	p := app.Measure(f)
	// Every round: 512 butterflies in blocks of 16 = 32 identical tasks.
	for r, rp := range p.Rounds {
		if rp.Tasks != 32 {
			t.Errorf("round %d: %d tasks, want 32", r, rp.Tasks)
		}
		if rp.MaxTask != sim.Time(10*16)*costPerOp {
			t.Errorf("round %d: max task %v", r, rp.MaxTask)
		}
	}
	if p.Work != sim.Time(10*512*10)*costPerOp {
		t.Errorf("total work = %v", p.Work)
	}
}

func TestMultigridVCycle(t *testing.T) {
	m := NewMultigrid(64, 4, 8)
	if m.Rounds() != 7 {
		t.Fatalf("rounds = %d", m.Rounds())
	}
	// Grid sides down the V and back: 64 32 16 8 16 32 64.
	want := []int{64, 32, 16, 8, 16, 32, 64}
	for r, w := range want {
		if got := m.level(r); got != w {
			t.Errorf("level(%d) = %d, want %d", r, got, w)
		}
	}
	p := app.Measure(m)
	// Parallelism collapses at the bottom of the V.
	if p.Rounds[3].Tasks >= p.Rounds[0].Tasks {
		t.Errorf("coarsest round has %d tasks vs finest %d", p.Rounds[3].Tasks, p.Rounds[0].Tasks)
	}
	if p.Rounds[0].Work <= p.Rounds[3].Work {
		t.Error("finest round should dominate the work")
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGauss(1, 1) },
		func() { NewGauss(8, 0) },
		func() { NewFFT(0, 1) },
		func() { NewFFT(31, 1) },
		func() { NewMultigrid(63, 2, 1) }, // not a power of two
		func() { NewMultigrid(8, 4, 1) },  // too many levels
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestNoChildren(t *testing.T) {
	for _, a := range []app.App{NewGauss(16, 2), NewFFT(6, 4), NewMultigrid(16, 3, 2)} {
		emitted := 0
		a.Execute(a.Roots(0)[0].Payload(), func(app.Spawn) { emitted++ })
		if emitted != 0 {
			t.Errorf("%s emitted %d children", a.Name(), emitted)
		}
	}
}

// TestCounted checks the app.Counted contract for all three kernels:
// ExecuteCount must be behaviourally identical to Execute (same
// children, same virtual time), and the aggregated count must be the
// run's inner-loop operation total — work / costPerOp — which is what
// the differential tests compare across backends.
func TestCounted(t *testing.T) {
	for _, a := range []app.App{NewGauss(32, 4), NewFFT(8, 8), NewMultigrid(32, 3, 4)} {
		c, ok := a.(app.Counted)
		if !ok {
			t.Fatalf("%s does not implement app.Counted", a.Name())
		}
		for r := 0; r < a.Rounds(); r++ {
			for _, root := range a.Roots(r) {
				var kidsE, kidsC []app.Spawn
				w := a.Execute(root.Payload(), func(s app.Spawn) { kidsE = append(kidsE, s) })
				wc, n := c.ExecuteCount(root.Payload(), func(s app.Spawn) { kidsC = append(kidsC, s) })
				if w != wc {
					t.Fatalf("%s: Execute work %v != ExecuteCount work %v", a.Name(), w, wc)
				}
				if len(kidsE) != len(kidsC) {
					t.Fatalf("%s: Execute emitted %d children, ExecuteCount %d", a.Name(), len(kidsE), len(kidsC))
				}
				if n < 0 {
					t.Fatalf("%s: negative op count %d", a.Name(), n)
				}
			}
		}
		p := app.Measure(a)
		if want := int64(p.Work / costPerOp); p.Result != want {
			t.Errorf("%s: Result = %d ops, want work/costPerOp = %d", a.Name(), p.Result, want)
		}
		if p.Result == 0 {
			t.Errorf("%s: zero aggregate op count", a.Name())
		}
	}
}
