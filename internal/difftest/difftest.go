// Package difftest is the randomized differential cross-validation
// harness: it draws configurations from the full lattice of
// app × machine topology × RIPS transfer policy × worker count × seed,
// runs each configuration on every backend — the virtual-time
// simulator (ripsrt), the real-parallel RIPS backend and the
// work-stealing comparator (par) — and asserts that the application
// result, the task totals and the summed virtual work are bit-identical
// to the sequential ground truth everywhere.
//
// The paper's correctness claims are scheduling-invariance claims: the
// global phase protocol may place tasks anywhere, so the only
// acceptable observable difference between backends is timing. The
// relaxed-scheduler literature (Alistarh et al.; Gast et al.) shows
// such claims fail precisely under adversarial interleavings and
// latency variation, so the harness is built to be the adversary:
// configurations are sampled across every axis the protocol branches
// on, per-phase invariant checks (conservation, Theorem 1 balance) are
// force-enabled and promoted to hard failures with the offending
// configuration attached, and stress builds add the internal/par
// schedule-perturbation hook (-tags ripsperturb) so the race detector
// explores interleavings a quiet machine never produces.
//
// A failing configuration is shrunk (see Shrink) to a minimal one and
// printed in a form `ripsbench difftest -config "..."` re-runs
// verbatim.
package difftest

import (
	"context"
	"fmt"
	"io"
	"sync"

	"rips"
	"rips/internal/app"
	"rips/internal/apps/gromos"
	"rips/internal/apps/kernels"
	"rips/internal/apps/nqueens"
	"rips/internal/apps/puzzle"
	"rips/internal/cluster"
	"rips/internal/invariant"
	"rips/internal/par"
	"rips/internal/ripsrt"
	"rips/internal/sim"
)

// AppSpec is one entry of the lattice's app axis.
type AppSpec struct {
	// Name is the stable identifier used in Config.App.
	Name string
	// Heavy marks instances excluded from -smoke samples (they run in
	// the nightly full lattice): the larger IDA* configurations and
	// GROMOS cutoffs cost seconds per configuration.
	Heavy bool
	// New constructs the workload. Construction may be expensive
	// (GROMOS builds its molecule, IDA* discovers its bounds); the
	// Harness caches instances, which is safe because every app's
	// Execute treats construction state as immutable.
	New func() app.App
}

// Apps returns the lattice's app axis, cheapest first — the order
// doubles as the shrinker's preference when minimizing a failing
// configuration. The non-Heavy entries are the seven-app smoke set:
// both N-Queens boards, one IDA* configuration, one GROMOS cutoff and
// all three kernels, so every workload family in the paper's taxonomy
// is cross-validated on every CI run.
func Apps() []AppSpec {
	return []AppSpec{
		{Name: "mg", New: func() app.App { return kernels.NewMultigrid(64, 4, 4) }},
		{Name: "fft", New: func() app.App { return kernels.NewFFT(10, 16) }},
		{Name: "nq12", New: func() app.App { return nqueens.New(12, 4) }},
		{Name: "gromos8", New: func() app.App { return gromos.New(8) }},
		{Name: "gauss", New: func() app.App { return kernels.NewGauss(64, 4) }},
		{Name: "nq13", New: func() app.App { return nqueens.New(13, 4) }},
		{Name: "ida1", New: func() app.App { return puzzle.Config(1) }},
		{Name: "ida2", Heavy: true, New: func() app.App { return puzzle.Config(2) }},
		{Name: "gromos12", Heavy: true, New: func() app.App { return gromos.New(12) }},
		{Name: "gromos16", Heavy: true, New: func() app.App { return gromos.New(16) }},
		{Name: "ida3", Heavy: true, New: func() app.App { return puzzle.Config(3) }},
	}
}

// appSpec resolves a name against Apps.
func appSpec(name string) (AppSpec, error) {
	for _, s := range Apps() {
		if s.Name == name {
			return s, nil
		}
	}
	return AppSpec{}, fmt.Errorf("difftest: unknown app %q", name)
}

// Backends of one differential check, in report order.
const (
	BackendSimulate = "simulate"
	BackendParallel = "parallel"
	BackendSteal    = "steal"
	BackendHybrid   = "hybrid"
	BackendCluster  = "cluster"
)

// Failure describes one diverging (or crashing) backend run: which
// configuration, which backend, and a got/want account of the
// divergence. It is an error so harness callers can propagate it.
type Failure struct {
	Config  Config
	Backend string
	Reason  string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("difftest: %s backend diverged on [%s]: %s", f.Backend, f.Config, f.Reason)
}

// truth is the sequential ground truth every backend must reproduce.
type truth struct {
	tasks  int64
	work   sim.Time
	result int64
}

// Harness caches app instances and their sequential profiles across
// configurations — the expensive constructions (GROMOS molecule
// building, IDA* bound discovery, large sequential profiles) are paid
// once per process, not once per lattice point.
type Harness struct {
	mu   sync.Mutex
	apps map[string]*appEntry

	// The cluster leg's 3-process in-memory cluster, started lazily on
	// the first cluster check and shared by every configuration — a
	// cluster is membership state, not per-job state, and reusing it is
	// exactly how a real ripsd fleet runs its jobs. Close releases it.
	clusterOnce sync.Once
	clusterErr  error
	nodes       []*cluster.Node
}

type appEntry struct {
	app   app.App
	truth truth
}

// NewHarness returns an empty harness.
func NewHarness() *Harness {
	return &Harness{apps: map[string]*appEntry{}}
}

// entry returns the cached app instance and ground truth for name,
// constructing and profiling it on first use.
func (h *Harness) entry(name string) (*appEntry, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.apps[name]; ok {
		return e, nil
	}
	spec, err := appSpec(name)
	if err != nil {
		return nil, err
	}
	a := spec.New()
	p := app.Measure(a)
	e := &appEntry{app: a, truth: truth{tasks: int64(p.Tasks), work: p.Work, result: p.Result}}
	h.apps[name] = e
	return e, nil
}

// Check runs one configuration on every backend and returns the first
// failure, or nil when all backends reproduce the sequential truth.
// Gated invariant checks (phase conservation, Theorem 1 balance) are
// force-enabled for the duration: inside difftest an invariant
// violation is a hard failure carrying the configuration that
// triggered it, never a skipped assertion.
func (h *Harness) Check(cfg Config) *Failure {
	if err := cfg.validate(); err != nil {
		return &Failure{Config: cfg, Backend: "config", Reason: err.Error()}
	}
	e, err := h.entry(cfg.App)
	if err != nil {
		return &Failure{Config: cfg, Backend: "config", Reason: err.Error()}
	}
	restore := invariant.SetEnabled(true)
	defer restore()

	if f := h.checkSimulate(cfg, e); f != nil {
		return f
	}
	if f := h.checkParallel(cfg, e, par.RIPS, BackendParallel); f != nil {
		return f
	}
	if f := h.checkParallel(cfg, e, par.Steal, BackendSteal); f != nil {
		return f
	}
	if f := h.checkParallel(cfg, e, par.Hybrid, BackendHybrid); f != nil {
		return f
	}
	return h.checkCluster(cfg, e)
}

// guard converts an invariant violation escaping a backend run into a
// Failure attached to the offending configuration; unrelated panics
// keep propagating.
func guard(cfg Config, backend string, f func() *Failure) (out *Failure) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		v, ok := r.(*invariant.Violation)
		if !ok {
			panic(r) //ripslint:allow panic re-raising a foreign panic unchanged; only invariant violations are converted to failures
		}
		out = &Failure{Config: cfg, Backend: backend, Reason: v.Error()}
	}()
	return f()
}

func (h *Harness) checkSimulate(cfg Config, e *appEntry) *Failure {
	return guard(cfg, BackendSimulate, func() *Failure {
		res, err := ripsrt.Run(cfg.simConfig(e.app))
		if err != nil {
			return &Failure{Config: cfg, Backend: BackendSimulate, Reason: err.Error()}
		}
		return compare(cfg, BackendSimulate, e.truth,
			res.AppResult, res.Generated, res.Executed, res.VirtualWork)
	})
}

func (h *Harness) checkParallel(cfg Config, e *appEntry, strat par.Strategy, backend string) *Failure {
	return guard(cfg, backend, func() *Failure {
		pc := par.Config{
			Topo:     cfg.machine(),
			App:      e.app,
			Strategy: strat,
			Local:    cfg.Local,
			Global:   cfg.Global,
			Seed:     cfg.Seed,
		}
		if strat == par.Hybrid {
			pc.Domains = cfg.Domains
		}
		res, err := par.Run(pc)
		if err != nil {
			return &Failure{Config: cfg, Backend: backend, Reason: err.Error()}
		}
		return compare(cfg, backend, e.truth,
			res.AppResult, res.Generated, res.Executed, res.VirtualWork)
	})
}

// clusterWidth is the cluster leg's process count: a coordinator plus
// two distinct members, the smallest ring where the phase protocol's
// routing, batching and counter aggregation are all non-trivial.
const clusterWidth = 3

// clusterNodes lazily starts the harness's shared in-memory cluster:
// clusterWidth nodes on one MemTransport, joined into a ring, with a
// resolver serving the harness's cached app instances. The cluster is
// membership state, not per-job state — every configuration's cluster
// check submits to the same ring, exactly as jobs share a ripsd fleet.
func (h *Harness) clusterNodes() ([]*cluster.Node, error) {
	h.clusterOnce.Do(func() {
		resolver := func(name string, size int) (app.App, error) {
			e, err := h.entry(name)
			if err != nil {
				return nil, err
			}
			return e.app, nil
		}
		tr := cluster.NewMemTransport()
		for i := 0; i < clusterWidth; i++ {
			n, err := cluster.Start(cluster.Options{
				Addr:      fmt.Sprintf("mem://difftest%d", i),
				Transport: tr,
				Resolver:  resolver,
			})
			if err != nil {
				h.clusterErr = fmt.Errorf("difftest: start cluster node %d: %w", i, err)
				return
			}
			h.nodes = append(h.nodes, n)
			if i > 0 {
				if err := n.Join(h.nodes[0].Addr()); err != nil {
					h.clusterErr = fmt.Errorf("difftest: join cluster node %d: %w", i, err)
					return
				}
			}
		}
	})
	if h.clusterErr != nil {
		return nil, h.clusterErr
	}
	return h.nodes, nil
}

// Close releases the harness's cluster nodes. Safe on a harness whose
// cluster leg never ran, and idempotent.
func (h *Harness) Close() {
	h.clusterOnce.Do(func() {}) // bar a post-Close lazy start
	for _, n := range h.nodes {
		_ = n.Close()
	}
	h.nodes = nil
}

// checkCluster runs the configuration across the shared 3-process
// cluster. The cluster mirrors the configured topology family at the
// ring's width, so the machine shape axes (Rows, Cols, Workers) do not
// transfer — which is the point: the answer must not depend on them,
// and this leg holds the distributed protocol to the same sequential
// truth at a machine size the config never mentioned.
func (h *Harness) checkCluster(cfg Config, e *appEntry) *Failure {
	nodes, err := h.clusterNodes()
	if err != nil {
		return &Failure{Config: cfg, Backend: BackendCluster, Reason: err.Error()}
	}
	return guard(cfg, BackendCluster, func() *Failure {
		spec := rips.JobSpec{
			App: cfg.App,
			Config: rips.ConfigJSON{
				Backend:  BackendCluster,
				Topology: cfg.Topology,
				Eager:    cfg.Local == ripsrt.Eager,
				All:      cfg.Global == ripsrt.All,
				Seed:     cfg.Seed,
			},
		}
		// Any node accepts a submission and the ring routes it to the
		// job's coordinator; rotating the entry point by seed exercises
		// local coordination and peer forwarding alike.
		k := int64(len(nodes))
		entry := nodes[(cfg.Seed%k+k)%k]
		res, err := entry.Submit(context.Background(), spec)
		if err != nil {
			return &Failure{Config: cfg, Backend: BackendCluster, Reason: err.Error()}
		}
		return compare(cfg, BackendCluster, e.truth,
			res.AppResult, res.Generated, res.Executed, res.VirtualWork)
	})
}

// compare checks one backend's totals against the sequential truth,
// reporting every diverging quantity as a got/want pair.
func compare(cfg Config, backend string, want truth, result, generated, executed int64, work sim.Time) *Failure {
	var diffs []string
	if result != want.result {
		diffs = append(diffs, fmt.Sprintf("app result %d (want %d)", result, want.result))
	}
	if generated != want.tasks {
		diffs = append(diffs, fmt.Sprintf("generated %d tasks (want %d)", generated, want.tasks))
	}
	if executed != want.tasks {
		diffs = append(diffs, fmt.Sprintf("executed %d tasks (want %d)", executed, want.tasks))
	}
	if work != want.work {
		diffs = append(diffs, fmt.Sprintf("virtual work %v (want %v)", work, want.work))
	}
	if diffs == nil {
		return nil
	}
	return &Failure{Config: cfg, Backend: backend, Reason: joinDiffs(diffs)}
}

func joinDiffs(diffs []string) string {
	out := diffs[0]
	for _, d := range diffs[1:] {
		out += "; " + d
	}
	return out
}

// Report summarizes one lattice run.
type Report struct {
	// Configs is the number of configurations checked.
	Configs int
	// PerApp counts configurations per app name.
	PerApp map[string]int
	// Failures holds every failing configuration in check order (one
	// Failure per configuration: the first diverging backend wins).
	Failures []*Failure
}

// Run checks every configuration in order. When progress is non-nil,
// one line per configuration is streamed to it. Failures do not stop
// the run — the report collects all of them so a systematic breakage
// shows its whole shape, not its first symptom.
func (h *Harness) Run(cfgs []Config, progress io.Writer) *Report {
	rep := &Report{PerApp: map[string]int{}}
	for i, cfg := range cfgs {
		rep.Configs++
		rep.PerApp[cfg.App]++
		f := h.Check(cfg)
		if f != nil {
			rep.Failures = append(rep.Failures, f)
		}
		if progress != nil {
			status := "ok"
			if f != nil {
				status = "FAIL: " + f.Backend + ": " + f.Reason
			}
			fmt.Fprintf(progress, "[%3d/%d] %-60s %s\n", i+1, len(cfgs), cfg.String(), status)
		}
	}
	return rep
}
