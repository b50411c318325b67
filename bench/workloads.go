//ripslint:allow-file wallclock the workloads time real jobs through the public entry points; no scheduling decision inside a run reads these clocks

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rips"
	"rips/internal/cluster"
	"rips/internal/par"
	"rips/internal/ripsrt"
	"rips/internal/serve"
	"rips/internal/topo"
)

// workers is W: the workers, nodes and clients of every real-core
// workload. The reference box has two cores; with fewer the run is
// marked oversubscribed and prints no speedup or efficiency.
const workers = 2

// workload is one closed loop of jobs, a job being one complete RIPS
// run through whichever front door the workload names.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries.
	why string
	// clients is how many closed-loop callers submit side by side.
	clients int
	// procs is the GOMAXPROCS the jobs run under (capped by nproc).
	procs int
	// jobs is the fixed job count of a run without -seconds, warm-up
	// (the first twentieth) included; smoke is the test sizing.
	jobs, smoke int
	setup       func(ctx context.Context, seed int64) (instance, error)
}

// instance is one set-up of a workload: apps built, sequential
// profiles measured, pool, server or cluster running.
type instance interface {
	// job runs job i on a client, verifies its answer against the
	// sequential profile and returns when the verified result was in
	// hand. With a tracer it also records spans under parent and
	// accumulates the layer counters; that bookkeeping comes after the
	// returned time and is not part of the job.
	job(ctx context.Context, client, i int, tr *tracer, parent int) (time.Time, error)
	// layers writes the per-layer metrics this workload's traced jobs
	// feed, running the workload's reference probes where it has any.
	layers(ctx context.Context, m map[string]float64, loop tracedLoop) error
	close(ctx context.Context) error
}

// tracedLoop is what the traced blocks of a run add up to, handed to
// layers for the metrics that need process-wide numbers.
type tracedLoop struct {
	jobs        int
	cpu         time.Duration
	untracedP50 float64 // ms
	smoke       bool
}

// jobError is a failed job with the spec that reproduces it.
type jobError struct {
	spec rips.JobSpec
	err  error
}

func (e *jobError) Error() string { return e.err.Error() }
func (e *jobError) Unwrap() error { return e.err }

// repro renders a job as the ripsbench command that re-runs it alone.
// Every spec the workloads build names its machine, algorithm and
// backend, so nothing is left to a default.
func repro(spec rips.JobSpec) string {
	c := spec.Config
	return fmt.Sprintf("go run ./cmd/ripsbench run -app %s -n %d -procs %d -alg %s -backend %s -seed %d",
		spec.App, spec.Size, c.Procs, c.Algorithm, c.Backend, c.Seed)
}

// jobSeed derives job i's Config.Seed from the run seed. It is
// injective in i, so serve_mix's fresh-seed jobs never share a cache
// key within a run.
func jobSeed(seed int64, i int) int64 { return seed<<24 + int64(i) + 1 }

// mix hashes (seed, i) for the per-job choices of serve_mix, so the
// job stream depends on the seed and the index alone, not on which
// client draws the index.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// verify holds a run's answer to the sequential profile: placement
// must never change what is computed.
func verify(p rips.Profile, appResult, tasks int64, canceled bool) error {
	switch {
	case canceled:
		return errors.New("run was canceled")
	case appResult != p.Result:
		return fmt.Errorf("app result %d, sequential profile says %d", appResult, p.Result)
	case tasks != int64(p.Tasks):
		return fmt.Errorf("%d tasks, sequential profile says %d", tasks, p.Tasks)
	}
	return nil
}

var workloads = []workload{
	{
		name: "sim_paper", clients: 1, procs: 1, jobs: 220, smoke: 5,
		why:   "13-Queens under RIPS ANY-Lazy on the simulated 8x4 mesh, the paper's Table I row, on one P: runs sim, ripsrt, collective and sched/mwa and bypasses par, serve and cluster, so it is their control",
		setup: setupDirect(rips.JobSpec{App: "nq", Size: 13, Config: rips.ConfigJSON{Procs: 32, Algorithm: "rips", Backend: "simulate"}}, false),
	},
	{
		name: "par_coarse", clients: 1, procs: workers, jobs: 120, smoke: 5,
		why:   "14-Queens (19us tasks) on 2 real workers: user-phase busy is 96% of W x wall, so scheduler work must not move it and a task-payload change shows only here",
		setup: setupDirect(rips.JobSpec{App: "nq", Size: 14, Config: rips.ConfigJSON{Procs: workers, Algorithm: "rips", Backend: "parallel"}}, false),
	},
	{
		name: "par_fine", clients: 1, procs: workers, jobs: 200, smoke: 5,
		why:   "IDA* 15-puzzle #1 (0.8us tasks, 17 phases) on 2 real workers: queue ops, detector wait, barrier, plan and apply in par are 44% of W x wall",
		setup: setupDirect(rips.JobSpec{App: "ida", Size: 1, Config: rips.ConfigJSON{Procs: workers, Algorithm: "rips", Backend: "parallel"}}, true),
	},
	{
		name: "steal_fine", clients: 1, procs: workers, jobs: 260, smoke: 5,
		why:   "the par_fine job under Chase-Lev stealing: no phases or barrier, spinning thieves; a phase-path gain that costs the shared engine's steal path shows here",
		setup: setupDirect(rips.JobSpec{App: "ida", Size: 1, Config: rips.ConfigJSON{Procs: workers, Algorithm: "steal", Backend: "parallel"}}, false),
	},
	{
		name: "serve_mix", clients: workers, procs: workers, jobs: 40000, smoke: 200,
		why:   "2 HTTP clients against an in-process ripsd: 75% cache hits, 25% fresh nq-10 misses, every 50th a whole-pool high-lane job; serve, tenant and pool leasing do most of the work",
		setup: setupServe,
	},
	{
		name: "cluster_fine", clients: 1, procs: workers, jobs: 110, smoke: 5,
		why:   "the par_fine job across 2 cluster nodes over loopback TCP, half the submissions forwarded: wire, coordinator and member are two thirds of the wall",
		setup: setupCluster,
	},
}

// directInst runs jobs in-process: the Simulate backend or the
// Parallel one on fresh goroutines.
type directInst struct {
	spec   rips.JobSpec
	app    rips.App
	prof   rips.Profile
	cfg    rips.Config
	seed   int64
	hybrid bool // also probe the job on the Hybrid backend when traced

	// Traced accumulators. One client, so no lock; the OnPhase hook
	// runs on a worker with the world stopped, before the run returns.
	phaseAt []time.Duration
	parSum  par.Result
	gapsUS  []float64
	simSum  struct {
		events, messages, bytes uint64
		time, overhead, idle    rips.Time
		phases, nonlocal        int64
		wall                    time.Duration
	}
}

// setupDirect builds the instance of an in-process workload.
func setupDirect(spec rips.JobSpec, hybridProbe bool) func(context.Context, int64) (instance, error) {
	return func(_ context.Context, seed int64) (instance, error) {
		a, err := rips.LookupApp(spec.App, spec.Size)
		if err != nil {
			return nil, err
		}
		cfg, err := spec.Config.Decode()
		if err != nil {
			return nil, err
		}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		d := &directInst{spec: spec, app: a, cfg: cfg, seed: seed, hybrid: hybridProbe}
		d.prof = rips.Measure(a)
		return d, nil
	}
}

func (d *directInst) job(ctx context.Context, client, i int, tr *tracer, parent int) (time.Time, error) {
	spec := d.spec
	spec.Config.Seed = jobSeed(d.seed, i)
	fail := func(err error) (time.Time, error) { return time.Now(), &jobError{spec, err} }
	if tr == nil {
		cfg := d.cfg
		cfg.Seed = spec.Config.Seed
		res, err := rips.RunProfiledContext(ctx, d.app, d.prof, cfg)
		if err == nil {
			err = verify(d.prof, res.AppResult, res.Tasks, res.Canceled)
		}
		if err != nil {
			return fail(err)
		}
		return time.Now(), nil
	}

	// Traced: call the layer's own entry point, which carries the
	// counters rips.Result folds away, and turn each OnPhase callback
	// into a span.
	d.phaseAt = d.phaseAt[:0]
	t0 := time.Now()
	var appResult, tasks int64
	var canceled bool
	var err error
	layer := "par"
	if d.cfg.Backend == rips.Simulate {
		layer = "ripsrt"
		var res ripsrt.Result
		res, err = ripsrt.Run(ripsrt.Config{
			Topo: topo.SquarishMesh(d.cfg.Procs), App: d.app, Seed: spec.Config.Seed, Cancel: ctx.Done(),
			OnPhase: func(rips.PhaseInfo) { d.phaseAt = append(d.phaseAt, time.Since(t0)) },
		})
		appResult, tasks, canceled = res.AppResult, res.Generated, res.Canceled
		s := &d.simSum
		s.wall += time.Since(t0)
		s.events += res.Sim.Events
		s.messages += res.Sim.Messages
		s.bytes += res.Sim.Bytes
		s.time += res.Time
		s.overhead += res.Overhead
		s.idle += res.Idle
		s.phases += res.Phases
		s.nonlocal += res.Nonlocal
	} else {
		pc := par.Config{
			Topo: topo.SquarishMesh(d.cfg.Procs), App: d.app, Seed: spec.Config.Seed, Cancel: ctx.Done(),
			OnPhase: func(pi rips.PhaseInfo) { d.phaseAt = append(d.phaseAt, pi.Elapsed) },
		}
		if d.cfg.Algorithm == rips.Steal {
			pc.Strategy = par.Steal
		}
		var res par.Result
		res, err = par.Run(pc)
		appResult, tasks, canceled = res.AppResult, res.Executed, res.Canceled
		addPar(&d.parSum, res)
	}
	t1 := time.Now()
	if err == nil {
		err = verify(d.prof, appResult, tasks, canceled)
	}
	if err != nil {
		return fail(err)
	}
	t2 := time.Now()

	run := tr.add(layer+".run", i, client, parent, t0, t1)
	prev := time.Duration(0)
	for k, at := range d.phaseAt {
		tr.add(layer+".phase", i, client, run, t0.Add(prev), t0.Add(at))
		if k > 0 && layer == "par" {
			d.gapsUS = append(d.gapsUS, us(at-prev))
		}
		prev = at
	}
	tr.add("bench.verify", i, client, parent, t1, t2)
	return t2, nil
}

// addPar sums the par.Result fields the layer metrics divide.
func addPar(sum *par.Result, r par.Result) {
	sum.Workers = r.Workers
	sum.Wall += r.Wall
	sum.Busy += r.Busy
	sum.Overhead += r.Overhead
	sum.Idle += r.Idle
	sum.Executed += r.Executed
	sum.Nonlocal += r.Nonlocal
	sum.Migrated += r.Migrated
	sum.Steals += r.Steals
	sum.Phases += r.Phases
	sum.Waves += r.Waves
}

func (d *directInst) layers(ctx context.Context, m map[string]float64, loop tracedLoop) error {
	m["apps.seq_ms"] = seqMS(d.app)
	if d.cfg.Backend == rips.Simulate {
		return d.simLayers(ctx, m, loop)
	}
	return d.parLayers(ctx, m, loop)
}

func (d *directInst) simLayers(ctx context.Context, m map[string]float64, loop tracedLoop) error {
	s, n := d.simSum, float64(loop.jobs)
	m["sim.events_per_s"] = float64(s.events) / s.wall.Seconds()
	m["sim.msgs_per_job"] = float64(s.messages) / n
	m["sim.bytes_per_job"] = float64(s.bytes) / n
	m["sim.slowdown"] = loop.untracedP50 / m["apps.seq_ms"]
	m["ripsrt.virtual_efficiency"] = float64(d.prof.Work) * n / (float64(d.cfg.Procs) * float64(s.time))
	m["ripsrt.overhead_share"] = float64(s.overhead) / float64(s.time)
	m["ripsrt.idle_share"] = float64(s.idle) / float64(s.time)
	m["ripsrt.phases_per_job"] = float64(s.phases) / n
	m["ripsrt.nonlocal_per_job"] = float64(s.nonlocal) / n
	if oversubscribed() {
		return nil
	}
	// The same job with a second P: the engine runs one node at a
	// time, so the extra P can only add cross-P wake-ups.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	walls, _, err := probe(ctx, d.app, d.prof, d.cfg, d.seed, loop.smoke)
	if err != nil {
		return fmt.Errorf("second-P probe: %w", err)
	}
	m["sim.second_p_slowdown"] = median(walls) / loop.untracedP50
	return nil
}

func (d *directInst) parLayers(ctx context.Context, m map[string]float64, loop tracedLoop) error {
	p, n := d.parSum, float64(loop.jobs)
	notBusy := time.Duration(p.Workers)*p.Wall - p.Busy // summed over workers
	m["apps.task_ns"] = float64(p.Busy) / float64(p.Executed)
	m["par.sched_ns_per_task"] = float64(notBusy) / float64(p.Executed)
	m["par.overhead_share"] = float64(p.Overhead) / float64(p.Wall)
	m["par.idle_share"] = float64(p.Idle) / float64(p.Wall)
	m["par.phases_per_job"] = float64(p.Phases) / n
	m["par.migrated_per_job"] = float64(p.Migrated) / n
	m["par.nonlocal_per_job"] = float64(p.Nonlocal) / n
	m["par.waves_per_job"] = float64(p.Waves) / n
	m["par.phase_gap_us_p50"] = median(d.gapsUS)
	m["par.steals_per_job"] = float64(p.Steals) / n
	m["par.spin_cpu_share"] = float64(loop.cpu-p.Busy) / float64(loop.cpu)
	if !oversubscribed() {
		m["par.busy_share"] = float64(p.Busy) / float64(time.Duration(p.Workers)*p.Wall)
		m["par.speedup_vs_seq"] = m["apps.seq_ms"] / loop.untracedP50
	}
	if !d.hybrid {
		return nil
	}
	// The same job on the Hybrid backend: with two cores its domains
	// hold one worker each, so this tracks the code path, not the
	// design; it becomes a workload when the runner has four cores.
	cfg := d.cfg
	cfg.Backend = rips.Hybrid
	walls, results, err := probe(ctx, d.app, d.prof, cfg, d.seed, loop.smoke)
	if err != nil {
		return fmt.Errorf("hybrid probe: %w", err)
	}
	// rips.Result carries busy time as Efficiency = Busy / (W*Wall).
	var hybridNotBusy, tasks float64
	for _, r := range results {
		hybridNotBusy += float64(cfg.Procs) * float64(r.Wall) * (1 - r.Efficiency)
		tasks += float64(r.Tasks)
	}
	m["par.hybrid.job_ms_p50"] = median(walls)
	m["par.hybrid.sched_ns_per_task"] = hybridNotBusy / tasks
	return nil
}

// probe runs a reference job through rips.RunProfiledContext, 20
// times (twice in a smoke run), verified like any job, and returns
// the client-observed times in ms with the results.
func probe(ctx context.Context, a rips.App, p rips.Profile, cfg rips.Config, seed int64, smoke bool) ([]float64, []rips.Result, error) {
	n := 20
	if smoke {
		n = 2
	}
	var walls []float64
	var results []rips.Result
	for k := 0; k < n; k++ {
		cfg.Seed = jobSeed(seed, k)
		t0 := time.Now()
		res, err := rips.RunProfiledContext(ctx, a, p, cfg)
		walls = append(walls, ms(time.Since(t0)))
		if err == nil {
			err = verify(p, res.AppResult, res.Tasks, res.Canceled)
		}
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	return walls, results, nil
}

func (d *directInst) close(context.Context) error { return nil }

// seqMS times the plain sequential run of an app, rips.Measure on one
// thread, three times and returns the median in ms: the baseline the
// speedup and slowdown figures divide by.
func seqMS(a rips.App) float64 {
	var walls []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		rips.Measure(a)
		walls = append(walls, ms(time.Since(t0)))
	}
	return median(walls)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func oversubscribed() bool { return runtime.NumCPU() < workers }

// serveInst is an in-process ripsd behind a loopback listener and the
// HTTP clients that load it.
type serveInst struct {
	seed    int64
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
	readers []*bufio.Reader
	palette []rips.JobSpec
	profs   map[int]rips.Profile // by nq board size
	missApp rips.App             // nq-10, the app of every cache miss

	mu       sync.Mutex
	submitUS []float64
	admitUS  []float64
	runUS    []float64
	delivUS  []float64
	hitMS    []float64
	missMS   []float64
}

const (
	serveTenants  = 3
	serveHighStep = 50 // every 50th job asks for the whole pool in the high lane
	serveMissSize = 10
	// serveStampStep: a traced run reads back every 8th job's
	// server-side timestamps. Reading every job's back shifted the two
	// clients' rhythm enough to move the median job by 8%.
	serveStampStep = 8
)

func setupServe(ctx context.Context, seed int64) (instance, error) {
	s := &serveInst{seed: seed, profs: map[int]rips.Profile{}, served: make(chan error, 1)}
	// Fixed seeds: after first sight these four are cache hits.
	for _, p := range []struct{ size, procs int }{{8, 1}, {9, 1}, {10, 1}, {10, 2}} {
		s.palette = append(s.palette, rips.JobSpec{App: "nq", Size: p.size,
			Config: rips.ConfigJSON{Procs: p.procs, Algorithm: "rips", Backend: "parallel", Seed: 7}})
	}
	for _, size := range []int{8, 9, serveMissSize} {
		a, err := rips.LookupApp("nq", size)
		if err != nil {
			return nil, err
		}
		s.profs[size] = rips.Measure(a)
		s.missApp = a
	}
	srv, err := serve.NewServer(serve.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close(ctx))
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	for c := 0; c < workers; c++ {
		// One keep-alive connection per client: a client's POST and
		// its event stream follow each other on it.
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
		s.readers = append(s.readers, bufio.NewReader(nil))
	}
	return s, nil
}

// pick derives job i: every 50th a whole-pool high-lane miss, a
// quarter of the rest a one-worker miss, the others from the palette.
func (s *serveInst) pick(i int) rips.JobSpec {
	h := mix(s.seed, i)
	miss := rips.JobSpec{App: "nq", Size: serveMissSize,
		Config: rips.ConfigJSON{Procs: 1, Algorithm: "rips", Backend: "parallel", Seed: jobSeed(s.seed, i)}}
	var spec rips.JobSpec
	switch {
	case i%serveHighStep == serveHighStep-1:
		spec = miss
		spec.Config.Procs = workers
		spec.Priority = "high"
	case h%4 == 0:
		spec = miss
	default:
		spec = s.palette[(h>>8)%uint64(len(s.palette))]
	}
	spec.Tenant = "t" + strconv.Itoa(i%serveTenants)
	return spec
}

func (s *serveInst) job(ctx context.Context, client, i int, tr *tracer, parent int) (time.Time, error) {
	spec := s.pick(i)
	fail := func(err error) (time.Time, error) { return time.Now(), &jobError{spec, err} }
	body, err := spec.Encode()
	if err != nil {
		return fail(err)
	}
	hc := s.clients[client]

	t0 := time.Now()
	var posted serve.JobJSON
	if err := s.do(ctx, hc, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&posted)
	}); err != nil {
		return fail(err)
	}
	t1 := time.Now()

	var resultDoc []byte
	var phaseAt []time.Time
	rd := s.readers[client]
	err = s.do(ctx, hc, http.MethodGet, "/v1/jobs/"+posted.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		rd.Reset(r)
		var event string
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return fmt.Errorf("event stream ended without a result: %w", err)
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "result":
					resultDoc = []byte(line[len("data: "):])
					return nil
				case "error":
					return fmt.Errorf("job %s: %s", posted.ID, line[len("data: "):])
				case "phase":
					if tr != nil {
						phaseAt = append(phaseAt, time.Now())
					}
				}
			}
		}
	})
	if err != nil {
		return fail(err)
	}
	t2 := time.Now()

	// Strict: an unknown field or schema in the served document is a
	// failed job, not a silently ignored one.
	dec := json.NewDecoder(bytes.NewReader(resultDoc))
	dec.DisallowUnknownFields()
	var doc rips.ResultJSON
	if err := dec.Decode(&doc); err != nil {
		return fail(fmt.Errorf("result document: %w", err))
	}
	_, res, err := doc.Decode()
	if err != nil {
		return fail(err)
	}
	if err := verify(s.profs[spec.Size], res.AppResult, res.Tasks, res.Canceled); err != nil {
		return fail(err)
	}
	t3 := time.Now()
	if tr == nil {
		return t3, nil
	}

	tr.add("serve.http_submit", i, client, parent, t0, t1)
	wait := tr.add("serve.sse_wait", i, client, parent, t1, t2)
	prev := t1
	for _, at := range phaseAt {
		tr.add("serve.phase", i, client, wait, prev, at)
		prev = at
	}
	tr.add("bench.verify", i, client, parent, t2, t3)

	s.mu.Lock()
	s.submitUS = append(s.submitUS, us(t1.Sub(t0)))
	if posted.CacheHit {
		s.hitMS = append(s.hitMS, ms(t3.Sub(t0)))
	} else {
		s.missMS = append(s.missMS, ms(t3.Sub(t0)))
	}
	s.mu.Unlock()
	if i%serveStampStep != 0 {
		return t3, nil
	}

	// The job's server-side timestamps, fetched after the job's own
	// clock has stopped.
	var final serve.JobJSON
	if err := s.do(ctx, hc, http.MethodGet, "/v1/jobs/"+posted.ID, nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&final)
	}); err != nil {
		return fail(err)
	}
	tr.add("serve.job_get", i, client, 0, t3, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	if final.FinishedAt != nil {
		s.delivUS = append(s.delivUS, us(t2.Sub(*final.FinishedAt)))
	}
	if final.StartedAt != nil && final.FinishedAt != nil {
		s.admitUS = append(s.admitUS, us(final.StartedAt.Sub(final.SubmittedAt)))
		s.runUS = append(s.runUS, us(final.FinishedAt.Sub(*final.StartedAt)))
	}
	return t3, nil
}

// do performs one request, hands the body of the expected status to
// read, and drains what read left so the connection is reused.
func (s *serveInst) do(ctx context.Context, hc *http.Client, method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error text
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (s *serveInst) layers(ctx context.Context, m map[string]float64, loop tracedLoop) error {
	m["apps.seq_ms"] = seqMS(s.missApp)
	m["serve.http_submit_us_p50"] = median(s.submitUS)
	m["serve.admit_wait_us_p50"] = median(s.admitUS)
	m["serve.run_us_p50"] = median(s.runUS)
	m["serve.deliver_us_p50"] = median(s.delivUS)
	m["serve.hit_ms_p50"] = median(s.hitMS)
	miss := sortedCopy(s.missMS)
	m["serve.miss_ms_p50"] = percentile(miss, 0.5)
	m["serve.miss_ms_p99"] = percentile(miss, 0.99)

	var stats serve.StatsJSON
	if err := s.do(ctx, s.clients[0], http.MethodGet, "/v1/stats", nil, http.StatusOK, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&stats)
	}); err != nil {
		return err
	}
	m["serve.rejects"] = float64(stats.Rejects)
	lookups := float64(stats.Cache.Hits + stats.Cache.Misses)
	m["tenant.cache_hit_share"] = float64(stats.Cache.Hits) / lookups
	m["tenant.preemptions_per_kjob"] = 1000 * float64(stats.Preemptions) / lookups
	m["tenant.requeues_per_kjob"] = 1000 * float64(stats.Requeues) / lookups

	// Live heap with the server still up: what its job table retains.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["serve.heap_mb_end"] = float64(mem.HeapAlloc) / (1 << 20)
	return nil
}

func (s *serveInst) close(ctx context.Context) error {
	for _, hc := range s.clients {
		hc.CloseIdleConnections()
	}
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Close(ctx))
}

// clusterInst is two cluster nodes in this process, joined over
// loopback TCP.
type clusterInst struct {
	seed  int64
	nodes []*cluster.Node
	app   rips.App
	prof  rips.Profile
	spec  rips.JobSpec

	sum       cluster.Result
	localMS   []float64
	forwardMS []float64
}

func setupCluster(_ context.Context, seed int64) (instance, error) {
	c := &clusterInst{seed: seed,
		spec: rips.JobSpec{App: "ida", Size: 1, Config: rips.ConfigJSON{Procs: workers, Algorithm: "rips", Backend: "cluster"}}}
	a, err := rips.LookupApp(c.spec.App, c.spec.Size)
	if err != nil {
		return nil, err
	}
	c.app = a
	c.prof = rips.Measure(a)
	if c.nodes, _, err = startCluster(); err != nil {
		return nil, err
	}
	return c, nil
}

// startCluster brings up two joined nodes and returns them with the
// time from the first Start until both rings list both members.
func startCluster() ([]*cluster.Node, time.Duration, error) {
	t0 := time.Now()
	var nodes []*cluster.Node
	for len(nodes) < workers {
		n, err := cluster.Start(cluster.Options{Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, 0, errors.Join(err, closeNodes(nodes))
		}
		nodes = append(nodes, n)
		if len(nodes) > 1 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				return nil, 0, errors.Join(err, closeNodes(nodes))
			}
		}
	}
	// Join admits the joiner at the seed before it replies, so the
	// rings agree as soon as it returns; a cluster that does not is a
	// set-up failure, not something to wait out.
	for _, n := range nodes {
		if got := len(n.Members()); got != workers {
			return nil, 0, errors.Join(fmt.Errorf("cluster: node %s sees %d members after join, want %d", n.Addr(), got, workers), closeNodes(nodes))
		}
	}
	return nodes, time.Since(t0), nil
}

func closeNodes(nodes []*cluster.Node) error {
	var err error
	for _, n := range nodes {
		err = errors.Join(err, n.Close())
	}
	return err
}

// coordinator names the node that will coordinate a job document: the
// ring successor of the document's FNV-1a hash, the rule cluster's
// ring.go documents, read here from the public Status ring IDs.
func coordinator(st cluster.Status, doc []byte) (string, error) {
	h := fnv.New64a()
	h.Write(doc)
	point := h.Sum64()
	for _, m := range st.Members { // ring order
		id, err := strconv.ParseUint(m.RingID, 16, 64)
		if err != nil {
			return "", fmt.Errorf("cluster: ring id %q: %w", m.RingID, err)
		}
		if id >= point {
			return m.Addr, nil
		}
	}
	return st.Members[0].Addr, nil
}

func (c *clusterInst) job(ctx context.Context, client, i int, tr *tracer, parent int) (time.Time, error) {
	spec := c.spec
	spec.Config.Seed = jobSeed(c.seed, i)
	fail := func(err error) (time.Time, error) { return time.Now(), &jobError{spec, err} }
	// Alternate the receiving node; the document's ring position picks
	// the coordinator, so about half the jobs are forwarded.
	node := c.nodes[i%len(c.nodes)]
	t0 := time.Now()
	res, err := node.Submit(ctx, spec)
	t1 := time.Now()
	if err == nil {
		err = verify(c.prof, res.AppResult, res.Executed, res.Canceled)
	}
	if err == nil && res.Generated != res.Executed {
		err = fmt.Errorf("%d tasks generated, %d executed", res.Generated, res.Executed)
	}
	if err != nil {
		return fail(err)
	}
	t2 := time.Now()
	if tr == nil {
		return t2, nil
	}
	tr.add("cluster.submit", i, client, parent, t0, t1)
	tr.add("bench.verify", i, client, parent, t1, t2)
	doc, err := spec.Encode()
	if err != nil {
		return fail(err)
	}
	coord, err := coordinator(node.Status(), doc)
	if err != nil {
		return fail(err)
	}
	if coord == node.Addr() {
		c.localMS = append(c.localMS, ms(t1.Sub(t0)))
	} else {
		c.forwardMS = append(c.forwardMS, ms(t1.Sub(t0)))
	}
	c.sum.Workers = res.Workers
	c.sum.Wall += res.Wall
	c.sum.Busy += res.Busy
	c.sum.Executed += res.Executed
	c.sum.Phases += res.Phases
	c.sum.Nonlocal += res.Nonlocal
	return t2, nil
}

func (c *clusterInst) layers(ctx context.Context, m map[string]float64, loop tracedLoop) error {
	n := float64(loop.jobs)
	m["apps.seq_ms"] = seqMS(c.app)
	m["apps.task_ns"] = float64(c.sum.Busy) / float64(c.sum.Executed)
	m["cluster.wall_over_busy"] = float64(c.sum.Workers) * float64(c.sum.Wall) / float64(c.sum.Busy)
	m["cluster.phases_per_job"] = float64(c.sum.Phases) / n
	m["cluster.nonlocal_per_job"] = float64(c.sum.Nonlocal) / n
	if len(c.forwardMS) > 0 && len(c.localMS) > 0 {
		m["cluster.forward_ms"] = median(c.forwardMS) - median(c.localMS)
	}

	// The same job on the Parallel backend, W = 2, in this process.
	walls, _, err := probe(ctx, c.app, c.prof, rips.Config{Procs: workers, Backend: rips.Parallel}, c.seed, loop.smoke)
	if err != nil {
		return fmt.Errorf("parallel probe: %w", err)
	}
	m["cluster.vs_par_ratio"] = loop.untracedP50 / median(walls)
	return nil
}

func (c *clusterInst) close(context.Context) error { return closeNodes(c.nodes) }
