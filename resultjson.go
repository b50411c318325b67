package rips

import (
	"encoding/json"
	"fmt"
	"time"
)

// ResultJSONSchema identifies the versioned wire encoding of run
// results. Everything that serializes a Result — the ripsd server's
// job API, ripsbench run -json, committed BENCH artifacts — shares
// this one schema, so a stored artifact and a streamed job result are
// the same document.
const ResultJSONSchema = "rips-result/v1"

// ConfigJSON is the wire form of Config: enums as their canonical
// strings (ParseAlgorithm/ParseBackend round-trip them), durations as
// integer nanoseconds with _ns suffixes. Hooks and pools do not
// serialize — they are process-local wiring, set by the receiving side.
type ConfigJSON struct {
	Procs     int    `json:"procs,omitempty"`
	Rows      int    `json:"rows,omitempty"`
	Cols      int    `json:"cols,omitempty"`
	Topology  string `json:"topology,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Backend   string `json:"backend,omitempty"`
	Domains   int    `json:"domains,omitempty"`
	Eager     bool   `json:"eager,omitempty"`
	All       bool   `json:"all,omitempty"`
	TimeoutNS int64  `json:"timeout_ns,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
}

// EncodeConfig renders a Config into its wire form.
func EncodeConfig(cfg Config) ConfigJSON {
	return ConfigJSON{
		Procs:     cfg.Procs,
		Rows:      cfg.Rows,
		Cols:      cfg.Cols,
		Topology:  cfg.Topology,
		Algorithm: cfg.Algorithm.String(),
		Backend:   cfg.Backend.String(),
		Domains:   cfg.Domains,
		Eager:     cfg.Eager,
		All:       cfg.All,
		TimeoutNS: int64(cfg.Timeout),
		Seed:      cfg.Seed,
	}
}

// Decode converts the wire form back into a Config. Empty enum
// strings decode to the zero values (RIPS, Simulate), so a sparse
// submission like {"procs": 4} is a complete default configuration;
// unknown enum strings are errors. The result is not validated as a
// whole — callers run Config.Validate next.
func (j ConfigJSON) Decode() (Config, error) {
	cfg := Config{
		Procs:    j.Procs,
		Rows:     j.Rows,
		Cols:     j.Cols,
		Topology: j.Topology,
		Domains:  j.Domains,
		Eager:    j.Eager,
		All:      j.All,
		Timeout:  time.Duration(j.TimeoutNS),
		Seed:     j.Seed,
	}
	if j.Algorithm != "" {
		a, err := ParseAlgorithm(j.Algorithm)
		if err != nil {
			return Config{}, err
		}
		cfg.Algorithm = a
	}
	if j.Backend != "" {
		b, err := ParseBackend(j.Backend)
		if err != nil {
			return Config{}, err
		}
		cfg.Backend = b
	}
	return cfg, nil
}

// ResultJSON is the rips-result/v1 document: one run's outcome plus
// the configuration that produced it. Virtual times and durations are
// integer nanoseconds.
type ResultJSON struct {
	Schema     string     `json:"schema"`
	Config     ConfigJSON `json:"config"`
	TimeNS     int64      `json:"time_ns,omitempty"`
	OverheadNS int64      `json:"overhead_ns,omitempty"`
	IdleNS     int64      `json:"idle_ns,omitempty"`
	Tasks      int64      `json:"tasks"`
	Nonlocal   int64      `json:"nonlocal"`
	Phases     int64      `json:"phases"`
	SeqTimeNS  int64      `json:"seq_time_ns,omitempty"`
	Efficiency float64    `json:"efficiency,omitempty"`
	Speedup    float64    `json:"speedup,omitempty"`
	WallNS     int64      `json:"wall_ns,omitempty"`
	Steals     int64      `json:"steals,omitempty"`
	Domains    int        `json:"domains,omitempty"`
	AppResult  int64      `json:"app_result"`
	Canceled   bool       `json:"canceled,omitempty"`
}

// EncodeResult renders a run's outcome (and the Config that produced
// it) as a rips-result/v1 document.
func EncodeResult(cfg Config, res Result) ResultJSON {
	return ResultJSON{
		Schema:     ResultJSONSchema,
		Config:     EncodeConfig(cfg),
		TimeNS:     int64(res.Time),
		OverheadNS: int64(res.Overhead),
		IdleNS:     int64(res.Idle),
		Tasks:      res.Tasks,
		Nonlocal:   res.Nonlocal,
		Phases:     res.Phases,
		SeqTimeNS:  int64(res.SeqTime),
		Efficiency: res.Efficiency,
		Speedup:    res.Speedup,
		WallNS:     int64(res.Wall),
		Steals:     res.Steals,
		Domains:    res.Domains,
		AppResult:  res.AppResult,
		Canceled:   res.Canceled,
	}
}

// Decode converts a rips-result/v1 document back into (Config,
// Result), rejecting unknown schemas so readers fail loudly on a
// future v2 rather than silently misreading fields.
func (j ResultJSON) Decode() (Config, Result, error) {
	if j.Schema != ResultJSONSchema {
		return Config{}, Result{}, fmt.Errorf("rips: result schema %q, want %q", j.Schema, ResultJSONSchema)
	}
	cfg, err := j.Config.Decode()
	if err != nil {
		return Config{}, Result{}, err
	}
	res := Result{
		Time:       Time(j.TimeNS),
		Overhead:   Time(j.OverheadNS),
		Idle:       Time(j.IdleNS),
		Tasks:      j.Tasks,
		Nonlocal:   j.Nonlocal,
		Phases:     j.Phases,
		SeqTime:    Time(j.SeqTimeNS),
		Efficiency: j.Efficiency,
		Speedup:    j.Speedup,
		Wall:       time.Duration(j.WallNS),
		Steals:     j.Steals,
		Domains:    j.Domains,
		AppResult:  j.AppResult,
		Canceled:   j.Canceled,
	}
	return cfg, res, nil
}

// Canonical renders the wire config as the canonical cache-key string
// of the rips-result/v1 encoding: the JSON object with fields in
// struct order and zero-valued fields omitted (the encoding's
// omitempty convention), so two submissions that resolve to the same
// effective configuration — regardless of which defaults each spelled
// out — produce byte-identical keys. Callers must canonicalize the
// semantic defaults first (resolve "" enums, fill in defaulted machine
// sizes) the way the serving frontend's admission path does; Canonical
// then makes the textual encoding unambiguous. The result cache behind
// ripsd keys on this string.
func (j ConfigJSON) Canonical() string {
	// Marshal of a struct with string/number/bool fields cannot fail.
	b, err := json.Marshal(j)
	if err != nil {
		return fmt.Sprintf("unencodable:%v", err)
	}
	return string(b)
}
