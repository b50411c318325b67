// This example runs the molecular-dynamics surrogate (the paper's
// GROMOS workload) across the three cutoff radii. The task set is
// static — 4986 charge groups, block-distributed like a real SPMD MD
// code — but per-task cost is nonuniform, so a load balancer is still
// needed; RIPS corrects the imbalance while moving only a small
// fraction of the tasks.
package main

import (
	"context"
	"fmt"
	"log"

	"rips"
)

func main() {
	fmt.Printf("%-12s %10s %9s %8s %8s %6s\n", "cutoff", "Ts", "nonlocal", "Ti", "T", "eff")
	for _, cutoff := range []float64{8, 12, 16} {
		md := rips.MolecularDynamics(cutoff)
		profile := rips.Measure(md)
		res, err := rips.RunProfiledContext(context.Background(), md, profile, rips.Config{Procs: 32})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %9.1fs %4d/%4d %7.2fs %7.2fs %5.0f%%\n",
			md.Name(), profile.Work.Seconds(),
			res.Nonlocal, res.Tasks,
			res.Idle.Seconds(), res.Time.Seconds(), 100*res.Efficiency)
	}
	fmt.Println("\nwork grows roughly with the cube of the cutoff radius, and")
	fmt.Println("only ~10-15% of tasks migrate — the imbalance correction.")
}
