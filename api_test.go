package rips_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rips"
)

// TestEnumRoundTrip is the property test for the satellite bugfix:
// parse(String(x)) == x for every defined Algorithm and Backend
// constant, and the String() rendering of out-of-range values is
// rejected by the parsers instead of aliasing onto a constant (the old
// fallthrough behavior mapped every unknown Backend to "simulate").
func TestEnumRoundTrip(t *testing.T) {
	for _, a := range rips.Algorithms() {
		got, err := rips.ParseAlgorithm(a.String())
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", a.String(), got, a)
		}
	}
	for _, b := range rips.Backends() {
		got, err := rips.ParseBackend(b.String())
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	// Out-of-range values render distinctly and do not parse.
	for bad := -3; bad <= 10; bad++ {
		a := rips.Algorithm(bad)
		if isDefined(a) {
			continue
		}
		s := a.String()
		if !strings.Contains(s, "algorithm(") {
			t.Errorf("Algorithm(%d).String() = %q, want algorithm(N) form", bad, s)
		}
		if _, err := rips.ParseAlgorithm(s); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted an out-of-range value", s)
		}
	}
	for bad := -3; bad <= 10; bad++ {
		b := rips.Backend(bad)
		if isDefinedBackend(b) {
			continue
		}
		s := b.String()
		if !strings.Contains(s, "backend(") {
			t.Errorf("Backend(%d).String() = %q, want backend(N) form", bad, s)
		}
		if _, err := rips.ParseBackend(s); err == nil {
			t.Errorf("ParseBackend(%q) accepted an out-of-range value", s)
		}
	}
}

func isDefined(a rips.Algorithm) bool {
	for _, d := range rips.Algorithms() {
		if a == d {
			return true
		}
	}
	return false
}

func isDefinedBackend(b rips.Backend) bool {
	for _, d := range rips.Backends() {
		if b == d {
			return true
		}
	}
	return false
}

// TestResultJSONRoundTrip checks Encode/Decode is lossless through an
// actual JSON marshal, and that the schema field gates decoding.
func TestResultJSONRoundTrip(t *testing.T) {
	cfg := rips.Config{
		Procs:     16,
		Topology:  "tree",
		Algorithm: rips.Steal,
		Backend:   rips.Parallel,
		Eager:     true,
		Timeout:   3 * time.Millisecond,
		Seed:      42,
	}
	res := rips.Result{
		Time:       rips.Millisecond,
		Overhead:   7,
		Idle:       9,
		Tasks:      1234,
		Nonlocal:   55,
		Phases:     17,
		SeqTime:    2 * rips.Millisecond,
		Efficiency: 0.5,
		Speedup:    8,
		Wall:       time.Second,
		Steals:     99,
		AppResult:  14200,
		Canceled:   true,
	}
	doc := rips.EncodeResult(cfg, res)
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back rips.ResultJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	gotCfg, gotRes, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCfg, cfg) {
		t.Errorf("config round-trip:\n got %+v\nwant %+v", gotCfg, cfg)
	}
	if gotRes != res {
		t.Errorf("result round-trip:\n got %+v\nwant %+v", gotRes, res)
	}

	doc.Schema = "rips-result/v0"
	if _, _, err := doc.Decode(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Decode accepted schema %q: %v", doc.Schema, err)
	}

	// A sparse submission decodes to defaults.
	var sparse rips.ConfigJSON
	if err := json.Unmarshal([]byte(`{"procs": 4}`), &sparse); err != nil {
		t.Fatal(err)
	}
	c, err := sparse.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if c.Algorithm != rips.RIPS || c.Backend != rips.Simulate || c.Procs != 4 {
		t.Errorf("sparse decode = %+v", c)
	}

	if _, err := (rips.ConfigJSON{Algorithm: "magic"}).Decode(); err == nil {
		t.Error("Decode accepted algorithm \"magic\"")
	}

	// The hybrid fields ride the same document.
	hdoc := rips.EncodeResult(
		rips.Config{Procs: 8, Backend: rips.Hybrid, Domains: 2},
		rips.Result{Domains: 2, Steals: 5, Tasks: 10},
	)
	hcfg, hres, err := hdoc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if hcfg.Backend != rips.Hybrid || hcfg.Domains != 2 || hres.Domains != 2 {
		t.Errorf("hybrid round-trip: cfg %+v res %+v", hcfg, hres)
	}
}

// TestRunContextCancelSimulate cancels a simulated run up front and
// checks the partial-result contract surfaces context.Canceled.
func TestRunContextCancelSimulate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rips.RunContext(ctx, rips.NQueens(10), rips.Config{Procs: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false")
	}
	if res.Efficiency != 0 || res.Speedup != 0 {
		t.Errorf("canceled run reported Efficiency=%v Speedup=%v, want 0", res.Efficiency, res.Speedup)
	}
}

// TestRunContextCancelParallel cancels a Parallel-backend run mid-
// flight and checks it stops promptly with a partial result.
func TestRunContextCancelParallel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := rips.RunContext(ctx, rips.NQueens(13), rips.Config{Procs: 4, Backend: rips.Parallel})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !res.Canceled {
		t.Error("Result.Canceled = false")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled run took %v", elapsed)
	}
}

// lingerApp is one task that outlasts any timeout of a run it is in:
// it returns once its deadline's worth of real time has passed twice.
type lingerApp struct{ timeout time.Duration }

func (a lingerApp) Name() string           { return "linger" }
func (a lingerApp) Rounds() int            { return 1 }
func (a lingerApp) Roots(int) []rips.Spawn { return []rips.Spawn{{}} }
func (a lingerApp) Execute(any, func(rips.Spawn)) rips.Time {
	time.Sleep(2 * a.timeout)
	return 1
}

// TestStealTimeout runs a job whose second worker never has anything
// to steal, under a Config.Timeout that expires while the first is
// still inside the only task. The idle thief's wait has no deadline of
// its own: unless the timeout reaches it there, the run never returns.
func TestStealTimeout(t *testing.T) {
	const timeout = 20 * time.Millisecond
	a := lingerApp{timeout}
	cfg := rips.Config{Procs: 2, Backend: rips.Parallel, Algorithm: rips.Steal, Timeout: timeout}
	done := make(chan struct{})
	var res rips.Result
	var err error
	go func() {
		defer close(done)
		res, err = rips.RunProfiledContext(context.Background(), a, rips.Profile{Tasks: 1, Work: 1}, cfg)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed-out steal run still going after 10s")
	}
	if !errors.Is(err, context.DeadlineExceeded) || !res.Canceled {
		t.Errorf("err = %v, Canceled = %v; want context.DeadlineExceeded on a canceled result", err, res.Canceled)
	}
}

// TestRunContextCompletes checks an uncanceled context changes nothing.
func TestRunContextCompletes(t *testing.T) {
	res, err := rips.RunContext(context.Background(), rips.NQueens(8), rips.Config{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Canceled || res.AppResult != 92 {
		t.Errorf("Canceled=%v AppResult=%d, want false/92", res.Canceled, res.AppResult)
	}
}

// TestOnPhaseParallelBackend checks the public OnPhase hook fires on
// the Parallel backend with monotonically increasing phase indices.
func TestOnPhaseParallelBackend(t *testing.T) {
	pool, err := rips.NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	// The hook runs on one leader at a time, ordered by the epoch
	// barrier, so a plain append is safe even under -race.
	var phases []int64
	res, err := rips.RunContext(context.Background(), rips.NQueens(10), rips.Config{
		Procs:   4,
		Backend: rips.Parallel,
		Pool:    pool,
		OnPhase: func(pi rips.PhaseInfo) {
			phases = append(phases, pi.Phase)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(phases)) != res.Phases {
		t.Fatalf("OnPhase fired %d times for %d phases", len(phases), res.Phases)
	}
	for i, p := range phases {
		if p != int64(i+1) {
			t.Errorf("phase %d reported index %d", i+1, p)
		}
	}
}

// TestPriorityRoundTrip extends the enum property test to the serving
// Priority vocabulary: parse(String(x)) == x for every defined lane,
// "" defaults to PriorityNormal, and out-of-range renderings are
// rejected.
func TestPriorityRoundTrip(t *testing.T) {
	for _, p := range rips.Priorities() {
		got, err := rips.ParsePriority(p.String())
		if err != nil {
			t.Errorf("ParsePriority(%q): %v", p.String(), err)
		}
		if got != p {
			t.Errorf("ParsePriority(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if got, err := rips.ParsePriority(""); err != nil || got != rips.PriorityNormal {
		t.Errorf("ParsePriority(\"\") = %v, %v; want PriorityNormal", got, err)
	}
	if rips.PriorityLow >= rips.PriorityNormal || rips.PriorityNormal >= rips.PriorityHigh {
		t.Error("priorities do not order numerically low < normal < high")
	}
	for bad := -3; bad <= 10; bad++ {
		p := rips.Priority(bad)
		defined := false
		for _, d := range rips.Priorities() {
			if p == d {
				defined = true
			}
		}
		if defined {
			continue
		}
		s := p.String()
		if !strings.Contains(s, "priority(") {
			t.Errorf("Priority(%d).String() = %q, want priority(N) form", bad, s)
		}
		if _, err := rips.ParsePriority(s); err == nil {
			t.Errorf("ParsePriority(%q) accepted an out-of-range value", s)
		}
	}
}

// TestParseNormalization pins the shared lenience policy of the three
// enum parsers: mixed case and surrounding whitespace are normalized
// once, identically, so parse(decorate(String(x))) == x for every
// defined constant and every decoration — the parsers must not each
// invent their own tolerance. Interior whitespace is still an error,
// and whitespace-only priority input falls to the PriorityNormal
// default exactly like "".
func TestParseNormalization(t *testing.T) {
	capitalize := func(s string) string {
		if s == "" {
			return s
		}
		return strings.ToUpper(s[:1]) + s[1:]
	}
	decorations := []func(string) string{
		strings.ToUpper,
		capitalize,
		func(s string) string { return "  " + s },
		func(s string) string { return s + "\t" },
		func(s string) string { return " \n" + strings.ToUpper(s) + " " },
	}
	for _, a := range rips.Algorithms() {
		for _, dec := range decorations {
			in := dec(a.String())
			got, err := rips.ParseAlgorithm(in)
			if err != nil || got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, a)
			}
		}
	}
	for _, b := range rips.Backends() {
		for _, dec := range decorations {
			in := dec(b.String())
			got, err := rips.ParseBackend(in)
			if err != nil || got != b {
				t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, b)
			}
		}
	}
	for _, p := range rips.Priorities() {
		for _, dec := range decorations {
			in := dec(p.String())
			got, err := rips.ParsePriority(in)
			if err != nil || got != p {
				t.Errorf("ParsePriority(%q) = %v, %v; want %v", in, got, err, p)
			}
		}
	}
	if got, err := rips.ParsePriority(" \t\n"); err != nil || got != rips.PriorityNormal {
		t.Errorf("ParsePriority(whitespace) = %v, %v; want PriorityNormal", got, err)
	}
	// Normalization trims edges only: interior whitespace, partial
	// names and decorated garbage still fail.
	for _, bad := range []string{"r ips", "si mulate", "hi gh", "ripsx", "PARALLELISM"} {
		if _, err := rips.ParseAlgorithm(bad); err == nil && bad != "PARALLELISM" {
			t.Errorf("ParseAlgorithm(%q) unexpectedly parsed", bad)
		}
		if _, err := rips.ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend(%q) unexpectedly parsed", bad)
		}
		if _, err := rips.ParsePriority(bad); err == nil {
			t.Errorf("ParsePriority(%q) unexpectedly parsed", bad)
		}
	}
}

// TestConfigJSONCanonical checks the cache-key encoding: identical
// resolved configs give byte-identical keys, any field difference
// changes the key, and zero fields do not appear (so a default spelled
// out and a default omitted agree after resolution).
func TestConfigJSONCanonical(t *testing.T) {
	base := rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Parallel, Seed: 7})
	if got, want := base.Canonical(), base.Canonical(); got != want {
		t.Fatalf("Canonical not deterministic: %q vs %q", got, want)
	}
	variants := []rips.ConfigJSON{
		rips.EncodeConfig(rips.Config{Procs: 8, Backend: rips.Parallel, Seed: 7}),
		rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Parallel, Seed: 8}),
		rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Parallel, Seed: 7, Eager: true}),
		rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Parallel, Seed: 7, Topology: "tree"}),
		rips.EncodeConfig(rips.Config{Procs: 4, Seed: 7}),
		rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Hybrid, Seed: 7}),
		rips.EncodeConfig(rips.Config{Procs: 4, Backend: rips.Hybrid, Seed: 7, Domains: 2}),
	}
	seen := map[string]bool{base.Canonical(): true}
	for i, v := range variants {
		k := v.Canonical()
		if seen[k] {
			t.Errorf("variant %d collides with an earlier key: %q", i, k)
		}
		seen[k] = true
	}
	// The encoding inherits rips-result/v1's omitempty convention, so a
	// zero Rows/Cols never appears and cannot split the cache.
	if k := base.Canonical(); strings.Contains(k, "rows") || strings.Contains(k, "cols") {
		t.Errorf("canonical key carries zero-valued fields: %q", k)
	}
}

// TestPublicSubPools drives Split/Release through the public
// API: two leases run concurrently submitted jobs with correct
// answers, and Validate enforces the lease size, not the root's.
func TestPublicSubPools(t *testing.T) {
	pool, err := rips.NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	a, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	if free := pool.Free(); free != 0 {
		t.Errorf("Free() with both leases out = %d, want 0", free)
	}

	cfgFor := func(p *rips.Pool) rips.Config {
		return rips.Config{Procs: 2, Backend: rips.Parallel, Pool: p}
	}
	// A machine that fits the root but not the lease is rejected.
	big := rips.Config{Procs: 4, Backend: rips.Parallel, Pool: a}
	if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "pool has 2") {
		t.Errorf("oversized lease config Validate = %v, want capacity error", err)
	}

	var wg sync.WaitGroup
	for _, sub := range []*rips.Pool{a, b} {
		wg.Add(1)
		go func(sub *rips.Pool) {
			defer wg.Done()
			res, err := rips.RunContext(context.Background(), rips.NQueens(8), cfgFor(sub))
			if err != nil {
				t.Errorf("lease run: %v", err)
				return
			}
			if res.AppResult != 92 {
				t.Errorf("lease run AppResult = %d, want 92", res.AppResult)
			}
		}(sub)
	}
	wg.Wait()

	a.Release()
	b.Release()
	whole, err := pool.Split(4)
	if err != nil {
		t.Fatalf("Split(4) after both releases: %v", err)
	}
	res, err := rips.RunContext(context.Background(), rips.NQueens(8), rips.Config{Procs: 4, Backend: rips.Parallel, Pool: whole})
	if err != nil {
		t.Fatal(err)
	}
	if res.AppResult != 92 {
		t.Errorf("whole-pool lease AppResult = %d, want 92", res.AppResult)
	}
	whole.Release()
	if free := pool.Free(); free != 4 {
		t.Errorf("Free() after releasing both leases = %d, want 4", free)
	}
}
