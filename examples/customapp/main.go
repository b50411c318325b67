// This example shows how to schedule your own computation: implement
// the rips.App interface and hand it to rips.RunContext. The workload is
// adaptive quadrature — numerically integrating a spiky function by
// recursive interval splitting — a classic divide-and-conquer whose
// task tree is highly irregular, exactly the "dynamic problem" class
// the paper targets.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"rips"
)

// interval is one integration task: approximate f over [a,b].
type interval struct {
	a, b float64
}

// quadrature integrates f(x) = sum of sharp peaks; intervals near a
// peak split much deeper than flat regions, so task grain sizes are
// wildly uneven.
type quadrature struct {
	tol float64
}

func f(x float64) float64 {
	s := 0.0
	for _, p := range []float64{0.13, 0.57, 0.891} {
		s += 0.01 / ((x-p)*(x-p) + 1e-4)
	}
	return s + math.Sin(8*x)
}

// simpson is the three-point Simpson rule on [a,b].
func simpson(a, b float64) float64 {
	return (b - a) / 6 * (f(a) + 4*f((a+b)/2) + f(b))
}

func (q quadrature) Name() string { return "adaptive-quadrature" }
func (q quadrature) Rounds() int  { return 1 }

func (q quadrature) Roots(round int) []rips.Spawn {
	// Start from 8 coarse panels.
	out := make([]rips.Spawn, 8)
	for i := range out {
		a := float64(i) / 8
		out[i] = rips.Spawn{Data: interval{a, a + 0.125}, Size: 16}
	}
	return out
}

func (q quadrature) Execute(data any, emit func(rips.Spawn)) rips.Time {
	iv := data.(interval)
	mid := (iv.a + iv.b) / 2
	whole := simpson(iv.a, iv.b)
	left := simpson(iv.a, mid)
	right := simpson(mid, iv.b)
	if math.Abs(left+right-whole) > q.tol*(iv.b-iv.a) {
		// Too inaccurate: split into two subtasks.
		emit(rips.Spawn{Data: interval{iv.a, mid}, Size: 16})
		emit(rips.Spawn{Data: interval{mid, iv.b}, Size: 16})
	}
	// Each task costs three function evaluations' worth of work.
	return 120 * rips.Microsecond
}

func main() {
	q := quadrature{tol: 1e-7}
	profile := rips.Measure(q)
	fmt.Printf("%s generates %d tasks (%v of work) from 8 roots\n\n",
		q.Name(), profile.Tasks, profile.Work)

	for _, alg := range []rips.Algorithm{rips.RIPS, rips.Random, rips.RID} {
		cfg := rips.Config{Procs: 16, Algorithm: alg, Seed: 3}
		res, err := rips.RunProfiledContext(context.Background(), q, profile, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s T=%-12v speedup=%5.1f eff=%3.0f%% nonlocal=%d\n",
			alg, res.Time, res.Speedup, 100*res.Efficiency, res.Nonlocal)
	}
}
