// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section 4) — Figure 4's
// MWA-vs-optimal communication costs, Table I's scheduler comparison,
// Table II's optimal efficiencies, Figure 5's normalized quality
// factors, and Table III's speedups — plus the ANY/ALL x eager/lazy
// policy ablation the paper cites from its companion work [24].
package exp

import (
	"fmt"

	"rips/internal/app"
	"rips/internal/apps/gromos"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/dynsched"
	"rips/internal/metrics"
	"rips/internal/ripsrt"
	"rips/internal/topo"
)

// Scheduler identifies a Table I scheduling algorithm.
type Scheduler int

const (
	SchedRandom Scheduler = iota
	SchedGradient
	SchedRID
	SchedRIPS
)

// Schedulers lists the Table I comparison set in paper order.
func Schedulers() []Scheduler {
	return []Scheduler{SchedRandom, SchedGradient, SchedRID, SchedRIPS}
}

func (s Scheduler) String() string {
	switch s {
	case SchedRandom:
		return "random"
	case SchedGradient:
		return "gradient"
	case SchedRID:
		return "rid"
	case SchedRIPS:
		return "rips"
	}
	return fmt.Sprintf("scheduler(%d)", int(s))
}

// Workload bundles an application with its sequential profile and the
// workload-specific RID tuning the paper reports.
type Workload struct {
	App     app.App
	Profile app.Profile
	// RIDU is the RID load-update factor (paper: 0.4; 0.7 for IDA* on
	// large machines).
	RIDU float64
}

// NewWorkload profiles an app once (the profile is reused by Table I,
// Table II and Figure 5).
func NewWorkload(a app.App, ridU float64) Workload {
	return Workload{App: a, Profile: app.Measure(a), RIDU: ridU}
}

// PaperWorkloads returns the nine Table I workloads at paper scale:
// 13/14/15-Queens, the three IDA* configurations, and GROMOS at 8, 12
// and 16 Angstrom. Expect a few seconds of profiling.
func PaperWorkloads() []Workload {
	var ws []Workload
	for _, n := range []int{13, 14, 15} {
		ws = append(ws, NewWorkload(nqueens.New(n, 4), 0.4))
	}
	for _, a := range puzzle.Configs() {
		ws = append(ws, NewWorkload(a, 0.4))
	}
	for _, a := range gromos.Configs() {
		ws = append(ws, NewWorkload(a, 0.4))
	}
	return ws
}

// QuickWorkloads returns a reduced set with the same mix of shapes
// (irregular search, iterative search, static nonuniform) for tests
// and benchmarks.
func QuickWorkloads() []Workload {
	return []Workload{
		NewWorkload(nqueens.New(11, 3), 0.4),
		NewWorkload(puzzle.New("15-puzzle mini", puzzle.Scramble(4, 30, 5), 6), 0.4),
		NewWorkload(gromos.New(8), 0.4),
	}
}

// RunOne executes one workload under one scheduler on the given mesh
// and fills a Table I row.
func RunOne(w Workload, mesh *topo.Mesh, s Scheduler, seed int64) (metrics.Row, error) {
	row := metrics.Row{
		App:     w.App.Name(),
		Sched:   s.String(),
		SeqTime: w.Profile.Work,
	}
	switch s {
	case SchedRIPS:
		res, err := ripsrt.Run(ripsrt.Config{
			Topo:   mesh,
			App:    w.App,
			Local:  ripsrt.Lazy,
			Global: ripsrt.Any,
			Seed:   seed,
		})
		if err != nil {
			return row, err
		}
		row.Tasks = res.Generated
		row.Nonlocal = res.Nonlocal
		row.Overhead = res.Overhead
		row.Idle = res.Idle
		row.Time = res.Time
		row.Phases = res.Phases
		row.Migrated = res.Migrated
	default:
		var strat func() dynsched.Strategy
		switch s {
		case SchedRandom:
			strat = dynsched.NewRandom()
		case SchedGradient:
			strat = dynsched.NewGradient()
		case SchedRID:
			p := dynsched.DefaultRIDParams()
			if w.RIDU > 0 {
				p.U = w.RIDU
			}
			strat = dynsched.NewRID(p)
		default:
			return row, fmt.Errorf("exp: unknown scheduler %v", s)
		}
		res, err := dynsched.Run(dynsched.Config{
			Topo:     mesh,
			App:      w.App,
			Strategy: strat,
			Seed:     seed,
		})
		if err != nil {
			return row, err
		}
		row.Tasks = res.Generated
		row.Nonlocal = res.Nonlocal
		row.Overhead = res.Overhead
		row.Idle = res.Idle
		row.Time = res.Time
		row.Migrated = res.Migrated
	}
	row.Eff = metrics.Efficiency(w.Profile.Work, mesh.Size(), row.Time)
	return row, nil
}
