//ripslint:allow-file wallclock the harness measures client-observed job time, loop wall and set-up time in real time by design

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runOpts is how one workload run is sized and seeded.
type runOpts struct {
	seed int64
	// seconds bounds the measured loop by time (the driver's contract);
	// zero runs the workload's fixed job count instead, so two commits
	// do identical work.
	seconds float64
	// smoke is the test sizing: a handful of jobs, one set-up.
	smoke  bool
	outDir string
}

// result is one workload run as the result line carries it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// failure is the first failed job, for the repro line.
	failure error
	// budget is the traced run's span table.
	budget []spanTotals
	// speed is the median machine speed over the run's slices.
	speed float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// loopStats is one measured stretch of a closed loop.
type loopStats struct {
	samples   []float64 // client-observed job times, ms
	wall, cpu time.Duration
	alloc     uint64 // bytes
	failed    int
	failure   error
}

func (l *loopStats) add(o loopStats) {
	l.samples = append(l.samples, o.samples...)
	l.wall += o.wall
	l.cpu += o.cpu
	l.alloc += o.alloc
	l.failed += o.failed
	if l.failure == nil {
		l.failure = o.failure
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// resetPeakRSS restarts the kernel's high-water mark from the current
// resident size. Where the kernel refuses, the mark keeps running and
// every slice reads the peak so far, which is still a peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// loop runs the instance's clients side by side, each taking the next
// job index as soon as its previous job is verified, until the index
// reaches limit or the deadline (when set) has passed.
func loop(ctx context.Context, inst instance, clients int, next *atomic.Int64, limit int64, deadline time.Time, tr *tracer) (loopStats, error) {
	var out loopStats
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, err := cpuTime()
	if err != nil {
		return out, err
	}
	perClient := make([]loopStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int, st *loopStats) {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				// Claim an index only below the limit, so the next
				// stretch of the run continues where this one stops.
				i := next.Load()
				for i < limit && !next.CompareAndSwap(i, i+1) {
					i = next.Load()
				}
				if i >= limit {
					return
				}
				t0 := time.Now()
				root := 0
				if tr != nil {
					root = tr.open("job", int(i), c, 0, t0)
				}
				end, err := inst.job(ctx, c, int(i), tr, root)
				if tr != nil {
					tr.close(root, end)
				}
				if err != nil {
					st.failed++
					if st.failure == nil {
						st.failure = err
					}
				}
				st.samples = append(st.samples, ms(end.Sub(t0)))
			}
		}(c, &perClient[c])
	}
	wg.Wait()
	out.wall = time.Since(start)
	cpu1, err := cpuTime()
	if err != nil {
		return out, err
	}
	runtime.ReadMemStats(&mem1)
	out.cpu = cpu1 - cpu0
	out.alloc = mem1.TotalAlloc - mem0.TotalAlloc
	for _, st := range perClient {
		out.add(st)
	}
	return out, ctx.Err()
}

// sizing is a run's job counts: how many warm-up jobs precede the
// measured ones, and where the measured loop stops.
type sizing struct {
	warm     int64
	limit    int64 // exclusive job-index bound of the measured loop
	duration time.Duration
}

func (w *workload) sizing(o runOpts) sizing {
	total := int64(w.jobs)
	if o.smoke {
		total = int64(w.smoke)
	}
	s := sizing{warm: max(total/20, 1), limit: total}
	if o.seconds > 0 && !o.smoke {
		s.limit = math.MaxInt64
		s.duration = time.Duration(o.seconds * float64(time.Second))
	}
	return s
}

func (s sizing) deadline() time.Time {
	if s.duration == 0 {
		return time.Time{}
	}
	return time.Now().Add(s.duration)
}

// setUps is how many times an untraced run sets the workload up; it
// reports the median, which one slow first set-up cannot move.
const setUps = 3

// setUp brings an instance up and runs the warm-up jobs on it: they
// are executed and verified like any other, timed into set-up only.
func (w *workload) setUp(ctx context.Context, o runOpts, sz sizing) (instance, loopStats, error) {
	inst, err := w.setup(ctx, o.seed)
	if err != nil {
		return nil, loopStats{}, err
	}
	var next atomic.Int64
	warm, err := loop(ctx, inst, w.clients, &next, sz.warm, time.Time{}, nil)
	if err != nil {
		return nil, warm, errors.Join(err, inst.close(ctx))
	}
	return inst, warm, nil
}

// stretch is one slice of a run's measured part with the machine's
// speed over it: yardRefMS over the mean of the yardstick readings
// taken just before and just after, 1 on the quiet reference box and
// below 1 while a neighbour slows it.
type stretch struct {
	loopStats
	traced bool
	speed  float64
	// peakRSS is the resident high-water mark over the slice, MiB.
	peakRSS float64
}

// speedBetween turns the yardstick readings around an interval into
// the factor that scales its times to reference speed.
func speedBetween(before, after float64) float64 { return 2 * yardRefMS / (before + after) }

// slices is how many stretches a run's measured part is cut into, a
// yardstick reading between each two. At 15 s a slice is a quarter
// second: a job or two of the slow workloads, hundreds of serve_mix's.
const slices = 60

// stretches runs the measured part of a run as consecutive slices of
// equal length, in time or, for a count-bound run, in jobs, each
// traced or not as tracerFor says.
func (w *workload) stretches(ctx context.Context, inst instance, sz sizing, tracerFor func(b int) *tracer) ([]stretch, error) {
	var next atomic.Int64
	next.Store(sz.warm)
	each := sz
	each.duration /= slices
	out := make([]stretch, 0, slices)
	procs := runtime.GOMAXPROCS(0)
	before := yardstick(procs)
	for b := 0; b < slices; b++ {
		limit := sz.limit
		if sz.duration == 0 {
			limit = sz.warm + (sz.limit-sz.warm)*int64(b+1)/slices
		}
		resetPeakRSS()
		tr := tracerFor(b)
		st, err := loop(ctx, inst, w.clients, &next, limit, each.deadline(), tr)
		if err != nil {
			return nil, err
		}
		if len(st.samples) == 0 {
			continue // a count-bound run with fewer jobs than slices
		}
		peak, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		after := yardstick(procs)
		out = append(out, stretch{st, tr != nil, speedBetween(before, after), peak})
		before = after
	}
	return out, nil
}

// peakRSS is the run's resident-memory number: the median of the
// slices' high-water marks over the first third of the nominal job
// count. A fixed count of jobs, not of seconds, so that a server whose
// memory grows with every job reads the same on a slowed machine; the
// median, because one allocation burst racing the collector can add a
// third to a small process's peak and would otherwise be the number.
func (w *workload) peakRSS(sts []stretch, sz sizing) float64 {
	upTo := (int64(w.jobs) - sz.warm) / 3
	var peaks []float64
	done := int64(0)
	for _, st := range sts {
		peaks = append(peaks, st.peakRSS)
		if done += int64(len(st.samples)); done >= upTo {
			break
		}
	}
	return median(peaks)
}

// pool adds up the stretches that were traced, or those that were
// not: raw as measured, atRef with every time scaled to reference
// speed, and the speeds themselves.
func pool(sts []stretch, traced bool) (raw, atRef loopStats, speeds []float64) {
	for _, st := range sts {
		if st.traced != traced {
			continue
		}
		raw.add(st.loopStats)
		scaled := st.loopStats
		scaled.samples = make([]float64, len(st.samples))
		for i, s := range st.samples {
			scaled.samples[i] = s * st.speed
		}
		scaled.wall = time.Duration(float64(st.wall) * st.speed)
		scaled.cpu = time.Duration(float64(st.cpu) * st.speed)
		atRef.add(scaled)
		speeds = append(speeds, st.speed)
	}
	return raw, atRef, speeds
}

// runEndToEnd is the untraced run of one workload: the numbers a
// caller of the system would see, nothing subscribed or polled
// besides the job itself.
func (w *workload) runEndToEnd(ctx context.Context, o runOpts) (res result, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), w.procs)))
	procs := runtime.GOMAXPROCS(0)
	sz := w.sizing(o)
	n := setUps
	if o.smoke {
		n = 1
	}
	var inst instance
	var warm loopStats
	var setupS []float64
	for k := 0; k < n; k++ {
		if inst != nil {
			if err := inst.close(ctx); err != nil {
				return res, err
			}
		}
		before := yardstick(procs)
		t0 := time.Now()
		var st loopStats
		if inst, st, err = w.setUp(ctx, o, sz); err != nil {
			return res, err
		}
		took := time.Since(t0).Seconds()
		setupS = append(setupS, took*speedBetween(before, yardstick(procs)))
		warm.add(st)
	}
	defer func() { err = errors.Join(err, inst.close(ctx)) }()

	sts, err := w.stretches(ctx, inst, sz, func(int) *tracer { return nil })
	if err != nil {
		return res, err
	}
	_, measured, speeds := pool(sts, false)
	jobs := float64(len(measured.samples))
	sorted := sortedCopy(measured.samples)
	res = newResult(warm, measured, endToEnd, map[string]float64{
		"job_ms_p50":       percentile(sorted, 0.5),
		"job_ms_p90":       percentile(sorted, 0.9),
		"jobs_per_s":       jobs / measured.wall.Seconds(),
		"cpu_ms_per_job":   ms(measured.cpu) / jobs,
		"alloc_kb_per_job": float64(measured.alloc) / 1024 / jobs,
		"peak_rss_mb":      w.peakRSS(sts, sz),
		"setup_s":          median(setupS),
	})
	res.speed = median(speeds)
	return res, nil
}

// runTraced is the per-layer run of one workload: the same jobs with
// spans around every public call and the layers' own counters read,
// then the layer microbenchmarks. Odd slices are traced and even ones
// are not, so drift over the run (a growing job table, a neighbour
// waking up) falls on both sides of trace.overhead_share alike.
func (w *workload) runTraced(ctx context.Context, o runOpts) (res result, err error) {
	restore := runtime.GOMAXPROCS(min(runtime.NumCPU(), w.procs))
	defer runtime.GOMAXPROCS(restore)
	sz := w.sizing(o)
	inst, warm, err := w.setUp(ctx, o, sz)
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, inst.close(ctx)) }()

	tr := newTracer()
	traceOdd := func(b int) *tracer {
		if b%2 == 1 {
			return tr
		}
		return nil
	}
	sts, err := w.stretches(ctx, inst, sz, traceOdd)
	if err != nil {
		return res, err
	}
	plainRaw, plain, speeds := pool(sts, false)
	tracedRaw, traced, _ := pool(sts, true)
	if len(plainRaw.samples) == 0 || len(tracedRaw.samples) == 0 {
		return res, fmt.Errorf("%s: the traced run measured %d untraced and %d traced jobs; it needs both", w.name, len(plainRaw.samples), len(tracedRaw.samples))
	}

	m := map[string]float64{}
	m["trace.overhead_share"] = median(traced.samples)/median(plain.samples) - 1
	m["bench.machine_speed"] = median(speeds)
	// The layers' own numbers are raw times, as their counters are.
	if err := inst.layers(ctx, m, tracedLoop{jobs: len(tracedRaw.samples), cpu: tracedRaw.cpu, untracedP50: median(plainRaw.samples), smoke: o.smoke}); err != nil {
		return res, err
	}
	var jobTotal, jobSelf time.Duration
	rows := budget(tr.spans)
	for _, r := range rows {
		if r.Name == "job" {
			jobTotal, jobSelf = r.Total, r.Self
		}
	}
	m["bench.self_share"] = float64(jobSelf) / float64(jobTotal)
	runtime.GOMAXPROCS(restore)
	if err := microbench(ctx, m, o.smoke); err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return res, err
	}
	if err := writeChromeTrace(filepath.Join(o.outDir, "trace-"+w.name+".json"), tr.spans); err != nil {
		return res, err
	}
	plainRaw.add(tracedRaw)
	res = newResult(warm, plainRaw, perLayer, m)
	res.budget = rows
	res.speed = median(speeds)
	return res, nil
}

// newResult assembles the result line: every metric of the table, the
// ones this workload does not feed reading 0.
func newResult(warm, measured loopStats, defs []metricDef, m map[string]float64) result {
	var all loopStats
	all.add(warm)
	all.add(measured)
	res := result{
		Correct:   all.failed == 0,
		Attempted: len(all.samples),
		Failed:    all.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
		failure:   all.failure,
	}
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over an empty sample, as in a smoke run
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res
}
