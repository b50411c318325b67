package rips_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"rips"
)

// TestConfigValidate pins Config.Validate's checks for the in-process
// backends: machine shape, enum ranges, and the algorithm/backend
// cross-checks.
func TestConfigValidate(t *testing.T) {
	for _, valid := range []rips.Config{
		{Procs: 8, Backend: rips.Parallel, Eager: true, Seed: 7},
		{Procs: 4, Backend: rips.Hybrid, Domains: 2},
		{Rows: 2, Cols: 3, Algorithm: rips.RID, Timeout: time.Second},
	} {
		if err := valid.Validate(); err != nil {
			t.Errorf("valid config %+v rejected: %v", valid, err)
		}
	}

	cases := []rejectCase{
		{"zero procs", rips.Config{}, "Procs must be positive"},
		{"bad mesh", rips.Config{Rows: 0, Cols: 4}, "must both be positive"},
		{"bad topology", rips.Config{Procs: 4, Topology: "torus"}, "unknown topology"},
		{"unknown algorithm", rips.Config{Procs: 4, Algorithm: rips.Algorithm(99)}, "unknown algorithm"},
		{"unknown backend", rips.Config{Procs: 4, Backend: rips.Backend(99)}, "unknown backend"},
		{"steal on simulate", rips.Config{Procs: 4, Algorithm: rips.Steal}, "steal algorithm runs only on the Parallel backend"},
		{"gradient on parallel", rips.Config{Procs: 4, Backend: rips.Parallel, Algorithm: rips.Gradient}, "runs only on the Simulate backend"},
		{"hypercube size", rips.Config{Procs: 6, Topology: "hypercube"}, "power-of-two"},
		{"negative domains", rips.Config{Procs: 4, Backend: rips.Hybrid, Domains: -1}, "non-negative"},
		{"domains on parallel", rips.Config{Procs: 4, Backend: rips.Parallel, Domains: 2}, "only to the Hybrid backend"},
		{"steal on hybrid", rips.Config{Procs: 4, Backend: rips.Hybrid, Algorithm: rips.Steal}, "must be RIPS"},
	}
	checkRejects(t, cases)
}

// TestClusterConfigValidate pins the Cluster backend's cross-checks:
// the cluster runs the phase protocol only, across processes — so no
// Steal variant, no local pool, no affinity domains.
func TestClusterConfigValidate(t *testing.T) {
	valid := rips.Config{Procs: 4, Backend: rips.Cluster}
	if err := valid.Validate(); err != nil {
		t.Fatalf("minimal cluster config rejected: %v", err)
	}
	checkRejects(t, []rejectCase{
		{"steal algorithm", rips.Config{Procs: 4, Backend: rips.Cluster, Algorithm: rips.Steal}, "Algorithm must be RIPS"},
		{"local pool", rips.Config{Procs: 4, Backend: rips.Cluster, Pool: mustPool(t, 2)}, "not a local worker pool"},
		{"domains", rips.Config{Procs: 4, Backend: rips.Cluster, Domains: 2}, "Hybrid backend"},
		{"negative timeout", rips.Config{Procs: 4, Backend: rips.Cluster, Timeout: -time.Second}, "Timeout"},
	})
}

type rejectCase struct {
	name string
	cfg  rips.Config
	want string
}

// checkRejects asserts Validate refuses every case with an error
// naming its want substring.
func checkRejects(t *testing.T, cases []rejectCase) {
	t.Helper()
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func mustPool(t *testing.T, n int) *rips.Pool {
	t.Helper()
	p, err := rips.NewPool(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestRunRefusesCluster pins that the in-process entry points refuse
// cluster configs with a pointer at the right front door.
func TestRunRefusesCluster(t *testing.T) {
	cfg := rips.Config{Procs: 4, Backend: rips.Cluster}
	_, err := rips.RunContext(context.Background(), rips.NQueens(6), cfg)
	if err == nil {
		t.Fatal("RunContext executed a cluster config in-process")
	}
	if !strings.Contains(err.Error(), "-cluster") {
		t.Errorf("error %q does not point at ripsd -cluster", err)
	}
}

// TestConfigJSONMirrorsConfig pins the wire schema to the struct:
// every Config field but the process-local OnPhase and Pool has a
// ConfigJSON twin (same name, or name+"NS" for a duration), and a
// Config with every such field non-zero survives EncodeConfig → JSON
// → Decode bit for bit. A knob added to one side only fails here.
func TestConfigJSONMirrorsConfig(t *testing.T) {
	local := map[string]bool{"OnPhase": true, "Pool": true}
	wire := reflect.TypeOf(rips.ConfigJSON{})
	var cfg rips.Config
	v := reflect.ValueOf(&cfg).Elem()
	twins := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if local[f.Name] {
			continue
		}
		_, same := wire.FieldByName(f.Name)
		_, ns := wire.FieldByName(f.Name + "NS")
		if !same && !ns {
			t.Errorf("Config.%s has no ConfigJSON twin", f.Name)
		}
		twins++
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(2) // Algorithm(2) and Backend(2) are defined constants
		case reflect.String:
			fv.SetString("tree")
		case reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("Config.%s: no non-zero value for kind %v", f.Name, fv.Kind())
		}
	}
	if wire.NumField() != twins {
		t.Errorf("ConfigJSON has %d fields, Config has %d wire-able ones", wire.NumField(), twins)
	}

	raw, err := json.Marshal(rips.EncodeConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var back rips.ConfigJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("round-trip:\n got %+v\nwant %+v", got, cfg)
	}
}

// TestJobSpecEncodeDecode pins the rips-job/v1 codec: stamping,
// lossless round-trips, and strict rejection of unknown fields, schema
// skew and trailing bytes — the submission semantics shared verbatim
// by POST /v1/jobs and cluster peer forwarding.
func TestJobSpecEncodeDecode(t *testing.T) {
	spec := rips.JobSpec{
		App:      "nq",
		Size:     12,
		Config:   rips.ConfigJSON{Backend: "cluster", Topology: "mesh", Seed: 7},
		Tenant:   "acme",
		Priority: "high",
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rips.DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != rips.JobSpecSchema {
		t.Errorf("decoded schema %q, want %q", got.Schema, rips.JobSpecSchema)
	}
	want := spec
	want.Schema = rips.JobSpecSchema
	if got != want {
		t.Fatalf("round-trip:\n got %+v\nwant %+v", got, want)
	}

	// A bare submission is version 1, stamped on the way out.
	bare, err := rips.DecodeJobSpec([]byte(`{"app": "nq"}`))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Schema != rips.JobSpecSchema || bare.App != "nq" {
		t.Errorf("bare decode = %+v", bare)
	}

	for name, body := range map[string]string{
		"unknown top-level field": `{"app": "nq", "procs": 4}`,
		"unknown config field":    `{"app": "nq", "config": {"workers": 4}}`,
		"schema skew":             `{"schema": "rips-job/v2", "app": "nq"}`,
		"trailing data":           `{"app": "nq"}{"app": "ida"}`,
		"not an object":           `"nq"`,
	} {
		if _, err := rips.DecodeJobSpec([]byte(body)); err == nil {
			t.Errorf("%s: decoder accepted %s", name, body)
		}
	}

	// A key outside the schema fails and the error names it, so a
	// client still sending a detector knob learns which one is refused.
	if _, err := rips.DecodeJobSpec([]byte(`{"app": "nq", "config": {"periodic_ns": 1000000}}`)); err == nil ||
		!strings.Contains(err.Error(), "periodic_ns") {
		t.Errorf("retired key: err = %v, want an error naming periodic_ns", err)
	}
}

// TestAppRegistry pins the public registry surface: built-in families
// resolve, sizes validate, unknown names error listing what exists,
// and duplicate registration panics like duplicate http.Handle
// patterns.
func TestAppRegistry(t *testing.T) {
	names := rips.Apps()
	for _, want := range []string{"gromos", "ida", "nq"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Apps() = %v, missing built-in %q", names, want)
		}
	}
	if _, err := rips.LookupApp("nq", 8); err != nil {
		t.Errorf("LookupApp(nq, 8): %v", err)
	}
	if _, err := rips.LookupApp("nq", 0); err != nil {
		t.Errorf("LookupApp(nq, 0) default size: %v", err)
	}
	if _, err := rips.LookupApp("ida", 9); err == nil {
		t.Error("LookupApp(ida, 9) accepted an out-of-range configuration")
	}
	_, err := rips.LookupApp("nope", 0)
	if err == nil {
		t.Fatal("LookupApp(nope) resolved")
	}
	if !strings.Contains(err.Error(), "nq") {
		t.Errorf("unknown-family error %q does not list the registered families", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterApp did not panic")
		}
	}()
	rips.RegisterApp("nq", func(int) (rips.App, error) { return nil, nil })
}
