// Quickstart: balance a random load with the Mesh Walking Algorithm
// and run a small N-Queens search under RIPS — the two entry points of
// the library in ~40 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rips"
)

func main() {
	// 1. Pure scheduling: plan a balanced redistribution of an uneven
	// load on an 4x4 mesh and compare with the optimal cost.
	rng := rand.New(rand.NewSource(7))
	load := make([]int, 16)
	for i := range load {
		load[i] = rng.Intn(20)
	}
	plan, err := rips.BalanceMesh(4, 4, load)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := rips.OptimalCost(4, 4, load)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load %v\n", load)
	fmt.Printf("MWA balances it in %d bulk moves, %d task-link transfers (optimal %d), %d comm steps\n",
		len(plan.Moves), plan.Cost, opt, plan.Steps)
	fmt.Printf("every node ends with %d or %d tasks\n\n", plan.Quota[len(plan.Quota)-1], plan.Quota[0])

	// 2. Whole-system simulation: run 11-Queens on a simulated
	// 16-processor mesh under RIPS and under random allocation.
	queens := rips.NQueens(11)
	profile := rips.Measure(queens)
	for _, alg := range []rips.Algorithm{rips.RIPS, rips.Random} {
		cfg := rips.Config{Procs: 16, Algorithm: alg}
		res, err := rips.RunProfiledContext(context.Background(), queens, profile, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s T=%-12v eff=%3.0f%%  nonlocal=%4d/%d tasks\n",
			alg, res.Time, 100*res.Efficiency, res.Nonlocal, res.Tasks)
	}
}
