package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rips"
	"rips/internal/apps/nqueens"
	"rips/internal/tenant"
)

// TestServeTwoTenantsConcurrent is the partitioning acceptance test:
// two tenants' jobs must run at the same time on disjoint sub-pools of
// one server, not serialize through the whole pool. Each job parks at
// its own gate, and the gates open only once both have been seen
// running: neither can finish first, so the overlap is caused by the
// jobs' progress and never by one of them being slow enough.
func TestServeTwoTenantsConcurrent(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})

	var jobs []*Job
	var gates []*gatedQueens
	for _, tenant := range []string{"alice", "bob"} {
		family, gate := registerGated(t)
		job, err := s.Submit(JobSpec{App: family, Tenant: tenant,
			Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
		if err != nil {
			t.Fatal(err)
		}
		jobs, gates = append(jobs, job), append(gates, gate)
	}
	for _, job := range jobs {
		waitState(t, job, 30*time.Second, func(s Snapshot) bool { return s.State == StateRunning })
	}
	// A gated job leaves StateRunning only through its gate, so this
	// instant has both running.
	for _, job := range jobs {
		if snap, _ := job.Snapshot(); snap.State != StateRunning {
			t.Fatalf("%s (%s) is %q while the other tenant's job starts", job.ID, snap.Tenant, snap.State)
		}
	}
	for _, gate := range gates {
		gate.open()
	}
	for _, job := range jobs {
		snap := waitTerminal(t, job)
		if snap.State != StateDone || snap.Result == nil || snap.Result.AppResult != 73712 {
			t.Errorf("%s: state=%q result=%+v", job.ID, snap.State, snap.Result)
		}
	}
}

// TestServePreemptionConservation is the preemption acceptance test: a
// high-priority submission that cannot fit preempts a low-priority run;
// the victim requeues, reruns, and its final document matches an
// uncontended direct run of the same workload.
func TestServePreemptionConservation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})

	low, err := s.Submit(JobSpec{App: "nq", Size: 13, Tenant: "batch", Priority: "low",
		Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, low, 30*time.Second, func(s Snapshot) bool { return s.State == StateRunning })

	high, err := s.Submit(JobSpec{App: "nq", Size: 8, Tenant: "urgent", Priority: "high",
		Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}

	// The high job owns the whole pool, so it can only start once the
	// low job has yielded.
	hs := waitTerminal(t, high)
	if hs.State != StateDone || hs.Result == nil || hs.Result.AppResult != 92 {
		t.Fatalf("high job: state=%q err=%q result=%+v", hs.State, hs.Err, hs.Result)
	}

	ls := waitTerminal(t, low)
	if ls.State != StateDone || ls.Result == nil {
		t.Fatalf("low job: state=%q err=%q", ls.State, ls.Err)
	}
	if ls.Preemptions == 0 {
		t.Error("low job finished without recording a preemption")
	}

	// Conservation: the preempted-then-rerun answer is identical to an
	// uncontended run of the same resolved config.
	cfg := low.cfg
	cfg.Pool = nil
	direct, err := rips.RunContext(context.Background(), low.app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	directDoc := rips.EncodeResult(low.cfg, direct)
	if ls.Result.AppResult != directDoc.AppResult || ls.Result.Tasks != directDoc.Tasks {
		t.Errorf("preempted run AppResult=%d Tasks=%d, direct AppResult=%d Tasks=%d",
			ls.Result.AppResult, ls.Result.Tasks, directDoc.AppResult, directDoc.Tasks)
	}

	arb, _, _ := s.Stats()
	if arb.Preemptions == 0 || arb.Requeues == 0 {
		t.Errorf("arbiter stats: preemptions=%d requeues=%d, want both > 0", arb.Preemptions, arb.Requeues)
	}
}

// TestServePerTenantQueueLimit checks admission is per tenant: one
// tenant filling its queue gets 503s while another tenant still
// admits.
func TestServePerTenantQueueLimit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4, QueueLimit: 1})

	long, err := s.Submit(JobSpec{App: "nq", Size: 13, Tenant: "a",
		Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, 30*time.Second, func(s Snapshot) bool { return s.State == StateRunning })

	queued, err := s.Submit(JobSpec{App: "nq", Size: 8, Tenant: "a",
		Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(JobSpec{App: "nq", Size: 8, Tenant: "a"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("tenant a overflow err = %v, want ErrQueueFull", err)
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("overflow error %q does not name the tenant", err)
	}

	// Tenant b is unaffected by a's saturation.
	other, err := s.Submit(JobSpec{App: "nq", Size: 8, Tenant: "b",
		Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatalf("tenant b rejected while only tenant a is saturated: %v", err)
	}

	long.Cancel()
	waitTerminal(t, long)
	for _, job := range []*Job{queued, other} {
		if snap := waitTerminal(t, job); snap.State != StateDone {
			t.Errorf("%s: state %q", job.ID, snap.State)
		}
	}
}

// familySeq keeps a registered test family's name unique across
// -count reruns (the registry refuses duplicates).
var familySeq atomic.Int64

// TestServeResultCache checks an identical resubmission settles from
// the cache without running: instant done, CacheHit set, no phases,
// and the same answer. The key is the resolved config, so a spec that
// spells the defaults differently still hits. The workload is a
// counting family: resolving a submission — hit or miss — must build
// its app once per size, not once per POST.
func TestServeResultCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	var builds atomic.Int64
	family := fmt.Sprintf("%s#%d", t.Name(), familySeq.Add(1))
	rips.RegisterApp(family, func(size int) (rips.App, error) {
		builds.Add(1)
		return nqueens.New(size, 4), nil
	})

	first, err := s.Submit(JobSpec{App: family, Size: 9,
		Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	fs := waitTerminal(t, first)
	if fs.State != StateDone || fs.Result == nil || fs.Result.AppResult != 352 {
		t.Fatalf("first run: state=%q result=%+v", fs.State, fs.Result)
	}
	if fs.CacheHit {
		t.Error("first run marked as cache hit")
	}

	// Same workload, defaults spelled implicitly: backend omitted
	// resolves to parallel, so the canonical key matches.
	second, err := s.Submit(JobSpec{App: family, Size: 9,
		Config: rips.ConfigJSON{Procs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ss := waitTerminal(t, second)
	if ss.State != StateDone || !ss.CacheHit {
		t.Fatalf("resubmission: state=%q cacheHit=%v", ss.State, ss.CacheHit)
	}
	if len(ss.Phases) != 0 {
		t.Errorf("cached settle recorded %d phases", len(ss.Phases))
	}
	if ss.Result == nil || ss.Result.AppResult != 352 {
		t.Errorf("cached result %+v", ss.Result)
	}

	// A different size must miss.
	third, err := s.Submit(JobSpec{App: family, Size: 8,
		Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	if ts := waitTerminal(t, third); ts.CacheHit {
		t.Error("different size hit the cache")
	}

	if got := builds.Load(); got != 2 {
		t.Errorf("the builder ran %d times for submissions of sizes 9, 9 and 8, want once per size", got)
	}
	_, cache, _ := s.Stats()
	if cache.Hits == 0 || cache.Entries == 0 {
		t.Errorf("cache stats %+v, want hits and entries > 0", cache)
	}
}

// TestServeSSELateSubscriber is the regression test for the
// exactly-once terminal delivery bug: a subscriber attaching after the
// job completed must receive the terminal result event exactly once
// and then see the stream close.
func TestServeSSELateSubscriber(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(JobSpec{App: "nq", Size: 9,
		Config: rips.ConfigJSON{Procs: 2, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, job); snap.State != StateDone {
		t.Fatalf("job state %q", snap.State)
	}

	// Attach strictly after completion; the stream must replay history
	// and deliver one terminal frame.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()

	results := 0
	var result rips.ResultJSON
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "result" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &result); err != nil {
					t.Fatal(err)
				}
				results++
			}
			if event == "error" {
				t.Fatalf("error event on a done job: %s", line)
			}
		}
	}
	// The server closes the stream after the terminal event, so the
	// scan loop ending is the exactly-once check's other half.
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 1 {
		t.Fatalf("late subscriber saw %d result events, want exactly 1", results)
	}
	if result.AppResult != 352 {
		t.Errorf("late subscriber result %d, want 352", result.AppResult)
	}
}

// TestServeSSEAcrossPreemption streams a job that gets preempted
// mid-run: the phase buffer resets under the subscriber, the stream
// must follow the new attempt (no stale-offset panic, no duplicate
// terminal) and still end with the correct answer.
func TestServeSSEAcrossPreemption(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	low, err := s.Submit(JobSpec{App: "nq", Size: 13, Tenant: "batch", Priority: "low",
		Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + low.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()

	waitState(t, low, 30*time.Second, func(s Snapshot) bool { return s.State == StateRunning })
	high, err := s.Submit(JobSpec{App: "nq", Size: 8, Tenant: "urgent", Priority: "high",
		Config: rips.ConfigJSON{Procs: 4, Backend: "parallel"}})
	if err != nil {
		t.Fatal(err)
	}

	results := 0
	var result rips.ResultJSON
	scanner := bufio.NewScanner(resp.Body)
	event := ""
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "result" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &result); err != nil {
					t.Fatal(err)
				}
				results++
			}
			if event == "error" {
				t.Fatalf("error event on preempted job: %s", line)
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if results != 1 {
		t.Fatalf("stream across preemption carried %d result events, want 1", results)
	}
	if result.AppResult != 73712 {
		t.Errorf("preempted job streamed result %d, want 73712", result.AppResult)
	}

	if hs := waitTerminal(t, high); hs.State != StateDone || hs.Result == nil || hs.Result.AppResult != 92 {
		t.Errorf("high job: %+v", hs)
	}
	ls := waitTerminal(t, low)
	if ls.Preemptions == 0 {
		t.Skip("high job fit without preempting (scheduler raced); preemption covered elsewhere")
	}
}

// TestServeStatsHTTP checks GET /v1/stats reports the pool, every
// priority lane by name, tenants, and cache counters, and that job
// documents carry tenant and priority attribution.
func TestServeStatsHTTP(t *testing.T) {
	s := newTestServer(t, Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"app": "nq", "size": 9, "tenant": "acme", "priority": "high", "config": {"procs": 2, "backend": "parallel"}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if submitted.Tenant != "acme" || submitted.Priority != "high" {
		t.Errorf("submission echo tenant=%q priority=%q", submitted.Tenant, submitted.Priority)
	}

	job, ok := s.Job(submitted.ID)
	if !ok {
		t.Fatal("submitted job not in table")
	}
	waitTerminal(t, job)

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats StatsJSON
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()

	if stats.Workers != 4 || stats.PoolFree != 4 {
		t.Errorf("stats workers=%d pool_free=%d, want 4/4 after drain-down", stats.Workers, stats.PoolFree)
	}
	for _, p := range rips.Priorities() {
		if _, ok := stats.Lanes[p.String()]; !ok {
			t.Errorf("stats missing lane %q", p)
		}
	}
	if stats.Dispatches == 0 {
		t.Error("stats dispatches = 0 after a completed job")
	}
	if stats.Cache.Max != tenant.DefaultCacheEntries {
		t.Errorf("cache max %d, want default %d", stats.Cache.Max, tenant.DefaultCacheEntries)
	}
}
