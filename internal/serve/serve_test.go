package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/apps/nqueens"
	"rips/internal/sim"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// waitState blocks until pred holds for the job's snapshot, using the
// notify channel so no update can slip between observation and wait.
func waitState(t *testing.T, job *Job, timeout time.Duration, pred func(Snapshot) bool) Snapshot {
	t.Helper()
	deadline := time.After(timeout)
	for {
		snap, changed := job.Snapshot()
		if pred(snap) {
			return snap
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("job %s stuck in state %q after %v", job.ID, snap.State, timeout)
		}
	}
}

// gatedQueens is 13-Queens whose 64th executed task parks until the
// test releases it, so a job running it is mid-flight for as long as
// the test needs — cancelling "a running job" cannot race the job to
// its end, however fast the backend gets.
type gatedQueens struct {
	app.Counted
	executed atomic.Int64
	reached  chan struct{} // closed when the gate task starts
	release  chan struct{} // closed by open to let it finish
	once     sync.Once
}

func (g *gatedQueens) open() { g.once.Do(func() { close(g.release) }) }

func (g *gatedQueens) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	if g.executed.Add(1) == 64 {
		close(g.reached)
		<-g.release
	}
	return g.Counted.ExecuteCount(data, emit)
}

// registerGated registers a one-off family serving one gatedQueens
// instance and returns the family name with the gate. Opening the gate
// is also a cleanup, so a failing test cannot leave a worker parked.
func registerGated(t *testing.T) (family string, g *gatedQueens) {
	t.Helper()
	g = &gatedQueens{Counted: nqueens.New(13, 4), reached: make(chan struct{}), release: make(chan struct{})}
	family = fmt.Sprintf("%s#%d", t.Name(), familySeq.Add(1))
	rips.RegisterApp(family, func(int) (rips.App, error) { return g, nil })
	t.Cleanup(g.open)
	return family, g
}

// cancelAtGate waits for the job to reach its gate task, runs cancel
// while that task is parked, then opens the gate.
func cancelAtGate(t *testing.T, g *gatedQueens, cancel func()) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("gated job never reached its 64th task")
	}
	cancel()
	g.open()
}

func waitTerminal(t *testing.T, job *Job) Snapshot {
	t.Helper()
	return waitState(t, job, 60*time.Second, func(s Snapshot) bool { return Terminal(s.State) })
}

// TestServeMatchesDirectRun is the tentpole acceptance test: many
// concurrent submissions multiplexed onto one shared pool must produce
// the same answers as direct library calls. Simulate jobs are compared
// bit-for-bit (the simulator is deterministic up to wall time);
// Parallel jobs compare the deterministic fields (answer, task count,
// config echo) since phase counts and steal totals vary run to run.
func TestServeMatchesDirectRun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})

	specs := []JobSpec{
		{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}},
		{App: "nq", Size: 9, Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}},
		{App: "nq", Size: 9, Config: rips.ConfigJSON{Procs: 4, Algorithm: "steal", Backend: "parallel"}},
		{App: "nq", Size: 10, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel", Eager: true}},
		{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 8, Backend: "simulate", Seed: 3}},
		{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 8, Backend: "simulate", Algorithm: "gradient", Seed: 3}},
		{App: "nq", Size: 9, Config: rips.ConfigJSON{Procs: 16, Backend: "simulate", Topology: "tree"}},
		{App: "ida", Size: 1, Config: rips.ConfigJSON{Procs: 4, Backend: "simulate"}},
		{App: "nq", Size: 8, Config: rips.ConfigJSON{Backend: "parallel"}}, // defaults: whole pool
		{App: "nq", Size: 9, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel", All: true}},
	}

	// Submit all specs concurrently — the acceptance bar is at least 8
	// in-flight submissions against one pool.
	jobs := make([]*Job, len(specs))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var submitErr error
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			job, err := s.Submit(spec)
			if err != nil {
				mu.Lock()
				submitErr = fmt.Errorf("submit %d: %w", i, err)
				mu.Unlock()
				return
			}
			jobs[i] = job
		}(i, spec)
	}
	wg.Wait()
	if submitErr != nil {
		t.Fatal(submitErr)
	}

	for i, job := range jobs {
		snap := waitTerminal(t, job)
		if snap.State != StateDone {
			t.Fatalf("job %d (%+v): state %q, err %q", i, specs[i], snap.State, snap.Err)
		}
		if snap.Result == nil {
			t.Fatalf("job %d: done without result", i)
		}

		// Re-run the same workload directly through the public API.
		a, err := rips.LookupApp(specs[i].App, specs[i].Size)
		if err != nil {
			t.Fatal(err)
		}
		cfg := job.cfg
		cfg.Pool = nil // direct run on fresh goroutines
		direct, err := rips.RunContext(context.Background(), a, cfg)
		if err != nil {
			t.Fatalf("direct run %d: %v", i, err)
		}
		directDoc := rips.EncodeResult(job.cfg, direct)
		got := *snap.Result

		if cfg.Backend == rips.Simulate {
			got.WallNS, directDoc.WallNS = 0, 0
			if got != directDoc {
				t.Errorf("job %d: served simulate result differs from direct run:\n got %+v\nwant %+v", i, got, directDoc)
			}
		} else {
			if got.AppResult != directDoc.AppResult || got.Tasks != directDoc.Tasks {
				t.Errorf("job %d: served AppResult=%d Tasks=%d, direct AppResult=%d Tasks=%d",
					i, got.AppResult, got.Tasks, directDoc.AppResult, directDoc.Tasks)
			}
			if got.Config != directDoc.Config {
				t.Errorf("job %d: config echo differs:\n got %+v\nwant %+v", i, got.Config, directDoc.Config)
			}
		}
	}
}

// TestServeCancelFreesPool cancels a long job mid-run and checks the
// shared pool immediately serves the next submission — the "canceled
// job must not wedge the barrier" acceptance criterion.
func TestServeCancelFreesPool(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})

	family, gate := registerGated(t)
	long, err := s.Submit(JobSpec{App: family, Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	cancelAtGate(t, gate, long.Cancel)
	snap := waitTerminal(t, long)
	if snap.State != StateCanceled {
		t.Fatalf("canceled job settled as %q (err %q)", snap.State, snap.Err)
	}
	if snap.Result == nil || !snap.Result.Canceled {
		t.Errorf("canceled job result = %+v, want partial document with canceled=true", snap.Result)
	}

	quick, err := s.Submit(JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	snap = waitTerminal(t, quick)
	if snap.State != StateDone || snap.Result == nil || snap.Result.AppResult != 92 {
		t.Fatalf("post-cancel job: state %q result %+v, want done with 92 solutions", snap.State, snap.Result)
	}
}

// TestServeCancelQueued cancels a job before the executor reaches it.
func TestServeCancelQueued(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})

	family, gate := registerGated(t)
	long, err := s.Submit(JobSpec{App: family, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	var queued *Job
	cancelAtGate(t, gate, func() {
		// The long job holds the whole pool at its gate, so this one
		// cannot have started when it is canceled.
		queued, err = s.Submit(JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
		if err != nil {
			t.Fatal(err)
		}
		queued.Cancel()
		long.Cancel()
	})
	snap := waitTerminal(t, queued)
	if snap.State != StateCanceled {
		t.Errorf("queued-then-canceled job settled as %q", snap.State)
	}
	if snap.Result != nil {
		t.Errorf("never-ran job has a result: %+v", snap.Result)
	}
	waitTerminal(t, long)
}

// TestServeDrain checks graceful shutdown: draining rejects new
// submissions with ErrDraining but completes everything already
// admitted.
func TestServeDrain(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})

	running, err := s.Submit(JobSpec{App: "nq", Size: 10, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if _, err := s.Submit(JobSpec{App: "nq", Size: 8}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Submit err = %v, want ErrDraining", err)
	}
	for _, job := range []*Job{running, queued} {
		snap, _ := job.Snapshot()
		if snap.State != StateDone {
			t.Errorf("job %s after drain: state %q, want done", job.ID, snap.State)
		}
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestServeQueueFull checks the bounded admission queue rejects the
// overflow submission instead of blocking.
func TestServeQueueFull(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4, QueueLimit: 1})

	long, err := s.Submit(JobSpec{App: "nq", Size: 13, Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, 30*time.Second, func(s Snapshot) bool { return s.State == StateRunning })

	queued, err := s.Submit(JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{App: "nq", Size: 8}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow Submit err = %v, want ErrQueueFull", err)
	}

	long.Cancel()
	waitTerminal(t, long)
	snap := waitTerminal(t, queued)
	if snap.State != StateDone {
		t.Errorf("queued job after overflow: state %q", snap.State)
	}
}

// TestServeRejectsBadSpecs checks submission validation happens before
// admission.
func TestServeRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"unknown app", JobSpec{App: "fft"}, "unknown app family"},
		{"bad size", JobSpec{App: "nq", Size: 3}, "size"},
		{"bad algorithm", JobSpec{App: "nq", Config: rips.ConfigJSON{Algorithm: "magic"}}, "unknown algorithm"},
		{"too many workers", JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Procs: 64, Backend: "parallel"}}, "pool"},
		{"simulate-only alg", JobSpec{App: "nq", Size: 8, Config: rips.ConfigJSON{Algorithm: "gradient", Backend: "parallel"}}, "Simulate backend"},
	} {
		if _, err := s.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if len(s.Jobs()) != 0 {
		t.Errorf("rejected submissions left %d jobs in the table", len(s.Jobs()))
	}
}

// TestServeHTTP drives the full HTTP surface end to end: health,
// submit, SSE stream with phase and result events, job detail, list,
// and the error statuses.
func TestServeHTTP(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	_ = resp.Body.Close()

	body := `{"app": "nq", "size": 10, "config": {"procs": 4, "algorithm": "rips", "backend": "parallel"}}`
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var submitted JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if submitted.ID == "" || submitted.Spec.App != "nq" {
		t.Fatalf("submit echoed %+v", submitted)
	}

	// Stream events until the terminal frame.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var phases int
	var result rips.ResultJSON
	sawResult := false
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "phase":
				var pe PhaseEvent
				if err := json.Unmarshal([]byte(data), &pe); err != nil {
					t.Fatalf("phase event %q: %v", data, err)
				}
				phases++
				if pe.Phase != int64(phases) {
					t.Errorf("phase event %d has index %d", phases, pe.Phase)
				}
			case "result":
				if err := json.Unmarshal([]byte(data), &result); err != nil {
					t.Fatalf("result event %q: %v", data, err)
				}
				sawResult = true
			case "error":
				t.Fatalf("unexpected error event: %s", data)
			}
		}
		if sawResult {
			break
		}
	}
	if !sawResult {
		t.Fatalf("stream ended without a result event (scanner err %v)", scanner.Err())
	}
	if phases == 0 {
		t.Error("stream carried no phase events")
	}
	if result.Schema != rips.ResultJSONSchema || result.AppResult != 724 {
		t.Errorf("streamed result schema=%q app_result=%d, want %q/724 (10-queens)", result.Schema, result.AppResult, rips.ResultJSONSchema)
	}

	// Job detail and listing reflect the finished run.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	var detail JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if detail.State != StateDone || detail.Result == nil || detail.Result.AppResult != 724 {
		t.Errorf("job detail %+v", detail)
	}
	if detail.Phases != phases {
		t.Errorf("detail reports %d phases, stream carried %d", detail.Phases, phases)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobJSON `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != submitted.ID {
		t.Errorf("job list %+v", list.Jobs)
	}

	// Error statuses.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs/job-999", "", http.StatusNotFound},
		{"POST", "/v1/jobs", "{not json", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"app": "fft"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs/job-999/cancel", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		_ = resp.Body.Close()
	}
}

// TestServeHTTPCancel cancels over HTTP and checks the SSE stream of a
// canceled job terminates with its partial result.
func TestServeHTTPCancel(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	family, gate := registerGated(t)
	body := fmt.Sprintf(`{"app": %q, "config": {"procs": 4, "backend": "parallel"}}`, family)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	job, ok := s.Job(submitted.ID)
	if !ok {
		t.Fatal("submitted job not in table")
	}
	cancelAtGate(t, gate, func() {
		resp, err = http.Post(ts.URL+"/v1/jobs/"+submitted.ID+"/cancel", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel: status %d", resp.StatusCode)
		}
		_ = resp.Body.Close()
	})

	snap := waitTerminal(t, job)
	if snap.State != StateCanceled {
		t.Fatalf("state after HTTP cancel: %q", snap.State)
	}

	// The event stream of a settled canceled job replays and ends with
	// the partial result document.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + submitted.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	scanner := bufio.NewScanner(resp.Body)
	sawCanceledResult := false
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"canceled":true`) {
			sawCanceledResult = true
			break
		}
	}
	if !sawCanceledResult {
		t.Error("canceled job's stream never delivered the partial result")
	}
}
