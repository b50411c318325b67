// This example reproduces a slice of the paper's Table I: the
// exhaustive 13-Queens search on a simulated 32-processor mesh under
// all four scheduling algorithms, reporting tasks, locality, overhead,
// idle time, execution time and efficiency.
package main

import (
	"context"
	"fmt"
	"log"

	"rips"
)

func main() {
	queens := rips.NQueens(13)
	profile := rips.Measure(queens)
	fmt.Printf("%s: %d tasks, sequential time %v\n\n", queens.Name(), profile.Tasks, profile.Work)
	fmt.Printf("%-9s %9s %8s %8s %8s %5s\n", "sched", "nonlocal", "Th", "Ti", "T", "eff")

	for _, alg := range []rips.Algorithm{rips.Random, rips.Gradient, rips.RID, rips.RIPS} {
		res, err := rips.RunProfiledContext(context.Background(), queens, profile, rips.Config{Procs: 32, Algorithm: alg})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %9d %8.2f %8.2f %8.2f %4.0f%%\n",
			alg, res.Nonlocal,
			res.Overhead.Seconds(), res.Idle.Seconds(), res.Time.Seconds(),
			100*res.Efficiency)
	}
	fmt.Println("\nRIPS should show by far the fewest nonlocal tasks and the")
	fmt.Println("best efficiency — the paper's central Table I result.")
}
