package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"rips/internal/app"
	"rips/internal/metrics"
	"rips/internal/par"
	"rips/internal/topo"
)

// ParScale is the real-parallel scaling experiment: the same workload
// runs on the internal/par backend at increasing worker counts, RIPS
// (ANY-Lazy over the walking-algorithm system phases) side by side
// with Chase-Lev work stealing and the hierarchical hybrid (RIPS
// phases across affinity domains, stealing within), and the curve
// reports wall-clock speedup against each strategy's own one-worker
// run. This is the zero-simulation counterpart of Table III: the
// paper's claim that global incremental scheduling stays within a
// small factor of the best dynamic scheduler is re-tested on actual
// cores, and the hybrid column shows where the hierarchy beats both
// pure strategies.

// ParScalePoint is one worker count of the scaling curve.
type ParScalePoint struct {
	Workers             int
	RIPS, Steal, Hybrid par.Result
	// Speedups are against the strategy's own 1-worker wall time;
	// efficiencies are busy/(workers*wall).
	RIPSSpeedup, StealSpeedup, HybridSpeedup float64
	RIPSEff, StealEff, HybridEff             float64
}

// ParScaleCounts returns the worker counts of the scaling curve:
// powers of two from 1 up to maxWorkers, plus maxWorkers itself.
func ParScaleCounts(maxWorkers int) []int {
	if maxWorkers < 1 {
		maxWorkers = 1
	}
	var counts []int
	for n := 1; n <= maxWorkers; n *= 2 {
		counts = append(counts, n)
	}
	if last := counts[len(counts)-1]; last != maxWorkers {
		counts = append(counts, maxWorkers)
	}
	return counts
}

// ParScale measures the scaling curve. Each point pins GOMAXPROCS to
// its worker count (restored afterwards) so a w-worker run really uses
// w cores, and keeps the fastest of reps runs to shed scheduling
// noise. domains shapes the hybrid strategy's partition (zero
// auto-detects; see par.Config.Domains) and classifies the pure-steal
// runs' steals as intra- versus cross-domain — measuring exactly the
// traffic the hybrid eliminates. The workload's answer (solution
// count, task totals) is verified identical across every strategy and
// point — a wrong answer fails the experiment rather than quietly
// shading a speedup.
func ParScale(a app.App, counts []int, reps int, detect time.Duration, domains int, seed int64) ([]ParScalePoint, error) {
	if reps < 1 {
		reps = 1
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	best := func(workers int, strat par.Strategy) (par.Result, error) {
		cfg := par.Config{
			Topo:           topo.SquarishMesh(workers),
			App:            a,
			Strategy:       strat,
			DetectInterval: detect,
			Seed:           seed,
		}
		if strat != par.RIPS {
			// Hybrid: the partition knob. Steal: advisory steal
			// classification. Pure RIPS rejects the field.
			cfg.Domains = domains
		}
		var out par.Result
		for i := 0; i < reps; i++ {
			res, err := par.Run(cfg)
			if err != nil {
				return par.Result{}, err
			}
			if i == 0 || res.Wall < out.Wall {
				out = res
			}
		}
		return out, nil
	}

	var pts []ParScalePoint
	var ripsBase, stealBase, hybridBase time.Duration
	var refResult, refTasks int64
	for i, w := range counts {
		runtime.GOMAXPROCS(w)
		rres, err := best(w, par.RIPS)
		if err != nil {
			return nil, fmt.Errorf("parscale: rips at %d workers: %w", w, err)
		}
		sres, err := best(w, par.Steal)
		if err != nil {
			return nil, fmt.Errorf("parscale: steal at %d workers: %w", w, err)
		}
		hres, err := best(w, par.Hybrid)
		if err != nil {
			return nil, fmt.Errorf("parscale: hybrid at %d workers: %w", w, err)
		}
		if i == 0 {
			ripsBase, stealBase, hybridBase = rres.Wall, sres.Wall, hres.Wall
			refResult, refTasks = rres.AppResult, rres.Generated
		}
		for _, chk := range []struct {
			strat string
			res   par.Result
		}{{"rips", rres}, {"steal", sres}, {"hybrid", hres}} {
			if chk.res.AppResult != refResult || chk.res.Generated != refTasks {
				return nil, fmt.Errorf("parscale: %s answer diverged at %d workers: result %d (want %d), tasks %d (want %d)",
					chk.strat, w, chk.res.AppResult, refResult, chk.res.Generated, refTasks)
			}
		}
		pts = append(pts, ParScalePoint{
			Workers:       w,
			RIPS:          rres,
			Steal:         sres,
			Hybrid:        hres,
			RIPSSpeedup:   metrics.WallSpeedup(ripsBase, rres.Wall),
			StealSpeedup:  metrics.WallSpeedup(stealBase, sres.Wall),
			HybridSpeedup: metrics.WallSpeedup(hybridBase, hres.Wall),
			RIPSEff:       metrics.WallEfficiency(rres.Busy, w, rres.Wall),
			StealEff:      metrics.WallEfficiency(sres.Busy, w, sres.Wall),
			HybridEff:     metrics.WallEfficiency(hres.Busy, w, hres.Wall),
		})
	}
	return pts, nil
}

// SystemPhaseJSON compares the stop-the-world system-phase cost of the
// serial leader-only plan application against the waved parallel apply
// (see DESIGN.md §9) at the same worker count, measured under the
// controlled skewed load of par.MeasureSystemPhase: each phase plans
// and applies a migration of Workers/2 * TasksPerWorker tasks. Each
// side is the minimum over reps measurements of the mean phase time.
type SystemPhaseJSON struct {
	Workers            int   `json:"workers"`
	TasksPerWorker     int   `json:"tasks_per_worker"`
	Phases             int   `json:"phases"`
	SerialNsPerPhase   int64 `json:"serial_ns_per_phase"`
	ParallelNsPerPhase int64 `json:"parallel_ns_per_phase"`
	ParallelWaves      int64 `json:"parallel_waves"`
}

// SystemPhaseCompare measures SystemPhaseJSON, keeping the fastest of
// reps measurements of phases phases per side.
func SystemPhaseCompare(workers, tasksPerWorker, phases, reps int) *SystemPhaseJSON {
	if reps < 1 {
		reps = 1
	}
	measure := func(serial bool) (time.Duration, int64) {
		var best time.Duration
		var waves int64
		for i := 0; i < reps; i++ {
			per, wv := par.MeasureSystemPhase(workers, tasksPerWorker, phases, serial)
			if i == 0 || per < best {
				best, waves = per, wv
			}
		}
		return best, waves
	}
	out := &SystemPhaseJSON{Workers: workers, TasksPerWorker: tasksPerWorker, Phases: phases}
	sPer, _ := measure(true)
	pPer, pWv := measure(false)
	out.SerialNsPerPhase = int64(sPer)
	out.ParallelNsPerPhase, out.ParallelWaves = int64(pPer), pWv
	return out
}

// ParScaleJSON is the machine-readable scaling trajectory written by
// `ripsbench parscale -json` (the BENCH_par.json artifact CI uploads):
// the whole curve plus the environment needed to read it honestly —
// Cores records the host's real parallelism, so a 16-worker point on a
// 1-core box is understood as oversubscribed goroutines, not hardware
// scaling.
type ParScaleJSON struct {
	Schema      string              `json:"schema"`
	App         string              `json:"app"`
	Cores       int                 `json:"cores"`
	GOOS        string              `json:"goos"`
	GOARCH      string              `json:"goarch"`
	Reps        int                 `json:"reps"`
	Points      []ParScalePointJSON `json:"points"`
	SystemPhase *SystemPhaseJSON    `json:"system_phase,omitempty"`
}

// ParScalePointJSON flattens one ParScalePoint to stable field names.
// The steal_cross_steals counter is the pure-steal run's steals that
// crossed a domain boundary (zero when the run saw a single domain) —
// the traffic the hybrid strategy confines. The hybrid_domain_* arrays
// are indexed by domain and expose where intra-domain work moved.
type ParScalePointJSON struct {
	Workers             int     `json:"workers"`
	RIPSWallNs          int64   `json:"rips_wall_ns"`
	RIPSOverheadNs      int64   `json:"rips_overhead_ns"`
	RIPSPhases          int64   `json:"rips_phases"`
	RIPSWaves           int64   `json:"rips_waves"`
	RIPSMigrated        int64   `json:"rips_migrated"`
	RIPSSpeedup         float64 `json:"rips_speedup"`
	RIPSEff             float64 `json:"rips_eff"`
	StealWallNs         int64   `json:"steal_wall_ns"`
	StealSteals         int64   `json:"steal_steals"`
	StealCrossSteals    int64   `json:"steal_cross_steals"`
	StealSpeedup        float64 `json:"steal_speedup"`
	StealEff            float64 `json:"steal_eff"`
	HybridWallNs        int64   `json:"hybrid_wall_ns"`
	HybridOverheadNs    int64   `json:"hybrid_overhead_ns"`
	HybridPhases        int64   `json:"hybrid_phases"`
	HybridWaves         int64   `json:"hybrid_waves"`
	HybridMigrated      int64   `json:"hybrid_migrated"`
	HybridSteals        int64   `json:"hybrid_steals"`
	HybridDomains       int     `json:"hybrid_domains"`
	HybridDomainSteals  []int64 `json:"hybrid_domain_steals,omitempty"`
	HybridDomainMigrate []int64 `json:"hybrid_domain_migrated,omitempty"`
	HybridSpeedup       float64 `json:"hybrid_speedup"`
	HybridEff           float64 `json:"hybrid_eff"`
}

// ParScaleJSONSchema names the current BENCH_par.json schema. v2 added
// the hybrid strategy columns and the domain-resolved steal counters.
const ParScaleJSONSchema = "rips-parscale/v2"

// WriteParScaleJSON emits the scaling curve (and the optional
// system-phase comparison) as indented JSON.
func WriteParScaleJSON(w io.Writer, a app.App, reps int, pts []ParScalePoint, sp *SystemPhaseJSON) error {
	doc := ParScaleJSON{
		Schema:      ParScaleJSONSchema,
		App:         a.Name(),
		Cores:       runtime.NumCPU(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Reps:        reps,
		SystemPhase: sp,
	}
	for _, p := range pts {
		doc.Points = append(doc.Points, ParScalePointJSON{
			Workers:             p.Workers,
			RIPSWallNs:          p.RIPS.Wall.Nanoseconds(),
			RIPSOverheadNs:      p.RIPS.Overhead.Nanoseconds(),
			RIPSPhases:          p.RIPS.Phases,
			RIPSWaves:           p.RIPS.Waves,
			RIPSMigrated:        p.RIPS.Migrated,
			RIPSSpeedup:         p.RIPSSpeedup,
			RIPSEff:             p.RIPSEff,
			StealWallNs:         p.Steal.Wall.Nanoseconds(),
			StealSteals:         p.Steal.Steals,
			StealCrossSteals:    p.Steal.CrossSteals,
			StealSpeedup:        p.StealSpeedup,
			StealEff:            p.StealEff,
			HybridWallNs:        p.Hybrid.Wall.Nanoseconds(),
			HybridOverheadNs:    p.Hybrid.Overhead.Nanoseconds(),
			HybridPhases:        p.Hybrid.Phases,
			HybridWaves:         p.Hybrid.Waves,
			HybridMigrated:      p.Hybrid.Migrated,
			HybridSteals:        p.Hybrid.Steals,
			HybridDomains:       p.Hybrid.Domains,
			HybridDomainSteals:  p.Hybrid.DomainSteals,
			HybridDomainMigrate: p.Hybrid.DomainMigrated,
			HybridSpeedup:       p.HybridSpeedup,
			HybridEff:           p.HybridEff,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// PrintParScale renders the scaling curve, RIPS, work stealing and the
// hierarchical hybrid side by side. The hybrid dom column is the
// resolved domain count; its steals are intra-domain by construction.
func PrintParScale(w io.Writer, a app.App, pts []ParScalePoint) {
	fmt.Fprintf(w, "Real-parallel scaling: %s (wall-clock, min of reps; speedup vs each strategy's 1-worker run)\n", a.Name())
	fmt.Fprintf(w, "%3s | %10s %7s %5s %7s %8s | %10s %7s %5s %7s %6s | %10s %7s %5s %4s %7s %8s\n",
		"P", "rips wall", "speedup", "eff", "phases", "migrated",
		"steal wall", "speedup", "eff", "steals", "cross",
		"hyb wall", "speedup", "eff", "dom", "phases", "steals")
	for _, p := range pts {
		fmt.Fprintf(w, "%3d | %10v %6.2fx %4.0f%% %7d %8d | %10v %6.2fx %4.0f%% %7d %6d | %10v %6.2fx %4.0f%% %4d %7d %8d\n",
			p.Workers,
			p.RIPS.Wall.Round(time.Microsecond), p.RIPSSpeedup, 100*p.RIPSEff, p.RIPS.Phases, p.RIPS.Migrated,
			p.Steal.Wall.Round(time.Microsecond), p.StealSpeedup, 100*p.StealEff, p.Steal.Steals, p.Steal.CrossSteals,
			p.Hybrid.Wall.Round(time.Microsecond), p.HybridSpeedup, 100*p.HybridEff, p.Hybrid.Domains, p.Hybrid.Phases, p.Hybrid.Steals)
	}
	if n := len(pts); n > 0 {
		fmt.Fprintf(w, "answer check: app result %d, %d tasks, identical at every point and strategy\n",
			pts[n-1].RIPS.AppResult, pts[n-1].RIPS.Generated)
	}
}
