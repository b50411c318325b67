//ripslint:allow-file wallclock the layer microbenchmarks time public functions of each module in real time; that is their whole purpose

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rips"
	"rips/internal/par"
	"rips/internal/sched/mwa"
	"rips/internal/task"
	"rips/internal/tenant"
	"rips/internal/topo"
)

// perOp times n calls of f and returns the mean.
func perOp(n int, f func() error) (time.Duration, error) {
	t0 := time.Now()
	for k := 0; k < n; k++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// microbench times the public functions of each layer outside any
// job, so a regression in a job metric can be pinned on the layer
// whose own number moved. Every traced run does all of them, whatever
// its workload; iteration counts are sized for a few seconds in all.
func microbench(ctx context.Context, m map[string]float64, smoke bool) error {
	scale := func(n int) int {
		if smoke {
			return max(n/100, 2)
		}
		return n
	}

	// par: one stop-the-world system phase moving 1024 tasks between 2
	// workers; a 1-worker lease; the same small job on a resident pool
	// against fresh goroutines.
	phase, _ := par.MeasureSystemPhase(workers, 1024, scale(200), false)
	m["par.system_phase_us"] = us(phase)

	pool, err := rips.NewPool(workers)
	if err != nil {
		return err
	}
	defer pool.Close()
	lease, err := perOp(scale(20000), func() error {
		sub, err := pool.Split(1)
		if err != nil {
			return err
		}
		sub.Release()
		return nil
	})
	if err != nil {
		return err
	}
	m["par.pool_lease_us"] = us(lease)

	nq10, err := rips.LookupApp("nq", 10)
	if err != nil {
		return err
	}
	t0 := time.Now()
	prof := rips.Measure(nq10)
	m["rips.measure_ms"] = ms(time.Since(t0))
	var onPool, spawned []float64
	for k := 0; k < scale(400); k++ {
		for _, p := range []*rips.Pool{pool, nil} {
			cfg := rips.Config{Procs: workers, Backend: rips.Parallel, Seed: int64(k + 1), Pool: p}
			t0 := time.Now()
			res, err := rips.RunProfiledContext(ctx, nq10, prof, cfg)
			d := ms(time.Since(t0))
			if err == nil {
				err = verify(prof, res.AppResult, res.Tasks, res.Canceled)
			}
			if err != nil {
				return fmt.Errorf("pool-vs-spawn probe: %w", err)
			}
			if p != nil {
				onPool = append(onPool, d)
			} else {
				spawned = append(spawned, d)
			}
		}
	}
	m["par.pool_vs_spawn_ms"] = median(onPool) - median(spawned)

	// task: the FIFO pair every executed task pays once.
	var q task.Queue
	pairs := scale(20_000_000)
	t0 = time.Now()
	for k := 0; k < pairs; k++ {
		q.PushBack(task.Task{})
		q.PopFront()
	}
	m["task.queue_op_ns"] = float64(time.Since(t0)) / float64(pairs)

	// sched: the paper's planner on the 8x4 mesh under a skewed load,
	// and the 1x2 plan every par_fine phase asks for.
	rng := rand.New(rand.NewSource(1))
	mesh := topo.NewMesh(8, 4)
	loads := make([]int, mesh.Size())
	for i := range loads {
		loads[i] = rng.Intn(400)
	}
	plan, err := perOp(scale(20000), func() error {
		_, err := mwa.Plan(mesh, loads)
		return err
	})
	if err != nil {
		return err
	}
	m["sched.mwa_plan_us"] = us(plan)
	pair2 := topo.NewMesh(1, workers)
	plan, err = perOp(scale(200000), func() error {
		_, _, err := par.PlanLoads(pair2, []int{900, 100})
		return err
	})
	if err != nil {
		return err
	}
	m["sched.plan_loads_us"] = us(plan)

	// rips: the two documents every served job crosses.
	spec := rips.JobSpec{App: "nq", Size: 10, Tenant: "t0", Config: rips.ConfigJSON{Procs: 1, Algorithm: "rips", Backend: "parallel", Seed: 12345}}
	codec, err := perOp(scale(50000), func() error {
		b, err := spec.Encode()
		if err != nil {
			return err
		}
		_, err = rips.DecodeJobSpec(b)
		return err
	})
	if err != nil {
		return err
	}
	m["rips.jobspec_codec_ns"] = float64(codec)
	cfg, err := spec.Config.Decode()
	if err != nil {
		return err
	}
	res := rips.Result{Tasks: int64(prof.Tasks), AppResult: prof.Result, Phases: 3, Nonlocal: 40, Wall: time.Millisecond, Efficiency: 0.9, Speedup: 0.9}
	codec, err = perOp(scale(50000), func() error {
		b, err := json.Marshal(rips.EncodeResult(cfg, res))
		if err != nil {
			return err
		}
		var doc rips.ResultJSON
		if err := json.Unmarshal(b, &doc); err != nil {
			return err
		}
		_, _, err = doc.Decode()
		return err
	})
	if err != nil {
		return err
	}
	m["rips.result_codec_ns"] = float64(codec)

	// tenant: an uncontended ticket through the arbiter, and a cache
	// hit.
	arb, err := tenant.New(tenant.Options{Capacity: workers, Start: func(*tenant.Ticket) {}, Preempt: func(*tenant.Ticket) {}})
	if err != nil {
		return err
	}
	admit, err := perOp(scale(200000), func() error {
		tk := &tenant.Ticket{ID: "t", Tenant: "t0", Lane: rips.PriorityNormal, Workers: 1}
		if err := arb.Submit(tk); err != nil {
			return err
		}
		arb.Done(tk)
		return nil
	})
	if err != nil {
		return err
	}
	m["tenant.admit_ns"] = float64(admit)
	cache := tenant.NewCache(0)
	key := tenant.Key(spec.App, spec.Size, spec.Config)
	cache.Put(key, rips.EncodeResult(cfg, res))
	get, err := perOp(scale(1_000_000), func() error {
		if _, ok := cache.Get(key); !ok {
			return errors.New("tenant cache lost its entry")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["tenant.cache_get_ns"] = float64(get)

	// cluster: ring set-up and the wire's alpha + beta*size message
	// cost, fitted from echo round trips like BENCH_cluster.json's.
	nodes, converge, err := startCluster()
	if err != nil {
		return err
	}
	m["cluster.ring_converge_ms"] = ms(converge)
	var xs, ys []float64
	for _, size := range []int{0, 1 << 10, 16 << 10, 64 << 10} {
		rtts, err := nodes[0].EchoRTT(nodes[1].Addr(), make([]byte, size), scale(3000))
		if err != nil {
			return errors.Join(err, closeNodes(nodes))
		}
		best := rtts[0]
		for _, r := range rtts {
			best = min(best, r)
		}
		xs, ys = append(xs, float64(size)), append(ys, float64(best))
	}
	// An echo crosses the wire twice: halve the round-trip line.
	a, b := fitLine(xs, ys)
	m["cluster.echo_alpha_us"] = a / 2 / 1e3
	m["cluster.echo_beta_ns_per_byte"] = b / 2
	return closeNodes(nodes)
}

// fitLine is the least-squares line y = a + b*x.
func fitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i] / n
		my += ys[i] / n
	}
	var cov, varX float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		varX += (xs[i] - mx) * (xs[i] - mx)
	}
	b = cov / varX
	return my - b*mx, b
}
