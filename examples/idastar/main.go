// This example runs the paper's second application — IDA* search on
// the 15-puzzle — under RIPS, showing the round structure: each IDA*
// iteration is a globally synchronized round whose early instances
// have almost no parallelism, which is why Table I's efficiencies for
// this workload are the lowest of the three applications.
package main

import (
	"context"
	"fmt"
	"log"

	"rips"
)

func main() {
	puzzle := rips.Puzzle15(1)
	profile := rips.Measure(puzzle)

	fmt.Printf("%s: %d iterations, %d tasks, sequential time %v\n",
		puzzle.Name(), puzzle.Rounds(), profile.Tasks, profile.Work)
	fmt.Println("\nper-iteration profile (note the nearly-serial early rounds):")
	for r, rp := range profile.Rounds {
		fmt.Printf("  iteration %2d: %8d tasks, work %12v, largest task %v\n",
			r+1, rp.Tasks, rp.Work, rp.MaxTask)
	}

	for _, procs := range []int{16, 32} {
		res, err := rips.RunProfiledContext(context.Background(), puzzle, profile, rips.Config{Procs: procs})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nRIPS on %d processors: T=%v speedup=%.1f eff=%.0f%% (%d system phases)\n",
			procs, res.Time, res.Speedup, 100*res.Efficiency, res.Phases)
	}
	fmt.Printf("\noptimal efficiency on 32 processors: %.1f%% (Table II)\n",
		100*profile.OptimalEfficiency(32))
}
