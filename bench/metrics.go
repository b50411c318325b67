package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names,
// units and directions (bench_test.go holds the two in step), and
// later issues refer to them by name.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero
	// for per-layer metrics, which have none.
	Bound float64
	// From names the workloads whose own traced jobs feed a per-layer
	// metric; empty for the ones every run measures. Elsewhere the
	// metric reads 0 in the result line and "-" in the tables.
	From string
	// Scaling marks speedup and efficiency figures, which a run with
	// more workers than cores must not print.
	Scaling bool
}

const (
	fromPar     = "par_coarse par_fine steal_fine"
	fromSim     = "sim_paper"
	fromServe   = "serve_mix"
	fromCluster = "cluster_fine"
)

// feeds reports whether the workload's run measures the metric.
func (d metricDef) feeds(workload string) bool {
	return d.From == "" || strings.Contains(" "+d.From+" ", " "+workload+" ")
}

// endToEnd is what a caller of the system sees, reported for every
// workload by the untraced run. failed_share is printed beside them
// but is not listed here: it must stay 0, so it has no median to take
// a share of; the result line's attempted/failed counts carry it.
//
// The timing bounds are what the reference box resolves, not what one
// would like: while a neighbouring VM is busy, ten runs of unchanged
// code spread over up to 10% of their median even at reference speed
// (cluster_fine's p90), and two sets of ten can sit 17% apart.
var endToEnd = []metricDef{
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "job_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_job", Unit: "KiB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's budget. The prefix of a name is the
// module it measures.
var perLayer = []metricDef{
	{Name: "apps.task_ns", Unit: "ns", Better: "lower", From: fromPar + " " + fromCluster},
	{Name: "apps.seq_ms", Unit: "ms", Better: "lower"},

	{Name: "par.sched_ns_per_task", Unit: "ns", Better: "lower", From: fromPar},
	{Name: "par.busy_share", Unit: "ratio", Better: "higher", From: fromPar, Scaling: true},
	{Name: "par.overhead_share", Unit: "ratio", Better: "lower", From: fromPar},
	{Name: "par.idle_share", Unit: "ratio", Better: "lower", From: fromPar},
	{Name: "par.phases_per_job", Unit: "count", Better: "lower", From: fromPar},
	{Name: "par.migrated_per_job", Unit: "count", Better: "lower", From: fromPar},
	{Name: "par.nonlocal_per_job", Unit: "count", Better: "lower", From: fromPar},
	{Name: "par.waves_per_job", Unit: "count", Better: "lower", From: fromPar},
	{Name: "par.phase_gap_us_p50", Unit: "us", Better: "lower", From: fromPar},
	{Name: "par.steals_per_job", Unit: "count", Better: "lower", From: fromPar},
	{Name: "par.spin_cpu_share", Unit: "ratio", Better: "lower", From: fromPar},
	{Name: "par.system_phase_us", Unit: "us", Better: "lower"},
	{Name: "par.pool_lease_us", Unit: "us", Better: "lower"},
	{Name: "par.pool_vs_spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "par.hybrid.job_ms_p50", Unit: "ms", Better: "lower", From: "par_fine"},
	{Name: "par.hybrid.sched_ns_per_task", Unit: "ns", Better: "lower", From: "par_fine"},
	{Name: "par.speedup_vs_seq", Unit: "ratio", Better: "higher", From: fromPar, Scaling: true},

	{Name: "task.queue_op_ns", Unit: "ns", Better: "lower"},

	{Name: "sched.mwa_plan_us", Unit: "us", Better: "lower"},
	{Name: "sched.plan_loads_us", Unit: "us", Better: "lower"},

	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", From: fromSim},
	{Name: "sim.msgs_per_job", Unit: "count", Better: "lower", From: fromSim},
	{Name: "sim.bytes_per_job", Unit: "B", Better: "lower", From: fromSim},
	{Name: "sim.slowdown", Unit: "ratio", Better: "lower", From: fromSim},
	{Name: "sim.second_p_slowdown", Unit: "ratio", Better: "lower", From: fromSim},

	{Name: "ripsrt.virtual_efficiency", Unit: "ratio", Better: "higher", From: fromSim},
	{Name: "ripsrt.overhead_share", Unit: "ratio", Better: "lower", From: fromSim},
	{Name: "ripsrt.idle_share", Unit: "ratio", Better: "lower", From: fromSim},
	{Name: "ripsrt.phases_per_job", Unit: "count", Better: "lower", From: fromSim},
	{Name: "ripsrt.nonlocal_per_job", Unit: "count", Better: "lower", From: fromSim},

	{Name: "rips.measure_ms", Unit: "ms", Better: "lower"},
	{Name: "rips.jobspec_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "rips.result_codec_ns", Unit: "ns", Better: "lower"},

	{Name: "serve.http_submit_us_p50", Unit: "us", Better: "lower", From: fromServe},
	{Name: "serve.admit_wait_us_p50", Unit: "us", Better: "lower", From: fromServe},
	{Name: "serve.run_us_p50", Unit: "us", Better: "lower", From: fromServe},
	{Name: "serve.deliver_us_p50", Unit: "us", Better: "lower", From: fromServe},
	{Name: "serve.hit_ms_p50", Unit: "ms", Better: "lower", From: fromServe},
	{Name: "serve.miss_ms_p50", Unit: "ms", Better: "lower", From: fromServe},
	{Name: "serve.miss_ms_p99", Unit: "ms", Better: "lower", From: fromServe},
	{Name: "serve.rejects", Unit: "count", Better: "lower", From: fromServe},
	{Name: "serve.heap_mb_end", Unit: "MiB", Better: "lower", From: fromServe},

	{Name: "tenant.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "tenant.cache_hit_share", Unit: "ratio", Better: "higher", From: fromServe},
	{Name: "tenant.preemptions_per_kjob", Unit: "count", Better: "lower", From: fromServe},
	{Name: "tenant.requeues_per_kjob", Unit: "count", Better: "lower", From: fromServe},

	{Name: "cluster.wall_over_busy", Unit: "ratio", Better: "lower", From: fromCluster},
	{Name: "cluster.phases_per_job", Unit: "count", Better: "lower", From: fromCluster},
	{Name: "cluster.nonlocal_per_job", Unit: "count", Better: "lower", From: fromCluster},
	{Name: "cluster.forward_ms", Unit: "ms", Better: "lower", From: fromCluster},
	{Name: "cluster.vs_par_ratio", Unit: "ratio", Better: "lower", From: fromCluster},
	{Name: "cluster.echo_alpha_us", Unit: "us", Better: "lower"},
	{Name: "cluster.echo_beta_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "cluster.ring_converge_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.self_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.machine_speed", Unit: "ratio", Better: "higher"},
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample: the smallest value with at least q of the samples
// at or below it. An empty sample has no quantile and reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// sortedCopy returns the samples in ascending order, leaving the
// argument untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5 nearest-rank quantile of an unsorted sample.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// worsening is how far b is worse than a, as a share of a, in the
// metric's own direction: positive means b is worse. A zero base has
// no share to take; any worsening from it reads as infinite.
func worsening(better string, a, b float64) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(a)
}
