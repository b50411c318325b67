package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rips/internal/apps/nqueens"
	"rips/internal/par"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestParScaleCounts(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{0, []int{1}},
	}
	for _, c := range cases {
		got := ParScaleCounts(c.max)
		if len(got) != len(c.want) {
			t.Errorf("ParScaleCounts(%d) = %v, want %v", c.max, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParScaleCounts(%d) = %v, want %v", c.max, got, c.want)
				break
			}
		}
	}
}

func TestParScale(t *testing.T) {
	a := nqueens.New(9, 3)
	pts, err := ParScale(a, []int{1, 2}, 1, -1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.RIPS.AppResult != 352 || p.Steal.AppResult != 352 || p.Hybrid.AppResult != 352 {
			t.Errorf("%d workers: app results %d/%d/%d, want 352 solutions",
				p.Workers, p.RIPS.AppResult, p.Steal.AppResult, p.Hybrid.AppResult)
		}
		if p.RIPSSpeedup <= 0 || p.StealSpeedup <= 0 || p.HybridSpeedup <= 0 {
			t.Errorf("%d workers: non-positive speedups %v/%v/%v",
				p.Workers, p.RIPSSpeedup, p.StealSpeedup, p.HybridSpeedup)
		}
		if p.RIPSEff <= 0 || p.RIPSEff > 1 || p.StealEff <= 0 || p.StealEff > 1 ||
			p.HybridEff <= 0 || p.HybridEff > 1 {
			t.Errorf("%d workers: efficiencies out of range %v/%v/%v",
				p.Workers, p.RIPSEff, p.StealEff, p.HybridEff)
		}
		// The requested partition is clamped to the worker count, so the
		// 1-worker point resolves to one domain and the 2-worker point
		// to the requested two.
		want := 2
		if p.Workers < want {
			want = p.Workers
		}
		if p.Hybrid.Domains != want {
			t.Errorf("%d workers: hybrid resolved %d domains, want %d", p.Workers, p.Hybrid.Domains, want)
		}
	}
	if pts[0].RIPSSpeedup != 1 || pts[0].StealSpeedup != 1 || pts[0].HybridSpeedup != 1 {
		t.Errorf("1-worker speedups = %v/%v/%v, want 1",
			pts[0].RIPSSpeedup, pts[0].StealSpeedup, pts[0].HybridSpeedup)
	}

	var buf strings.Builder
	PrintParScale(&buf, a, pts)
	out := buf.String()
	for _, want := range []string{"9-queens", "rips wall", "steal wall", "hyb wall", "352"} {
		if !strings.Contains(out, want) {
			t.Errorf("PrintParScale output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteParScaleJSON round-trips the BENCH_par.json document: the
// schema tag, the environment fields, and the flattened point values
// must survive encoding.
func TestWriteParScaleJSON(t *testing.T) {
	pts := []ParScalePoint{
		{
			Workers: 2,
			RIPS:    par.Result{Wall: 3 * time.Millisecond, Overhead: 400 * time.Microsecond, Phases: 7, Waves: 5, Migrated: 120, AppResult: 352},
			Steal:   par.Result{Wall: 2 * time.Millisecond, Steals: 17, CrossSteals: 6, AppResult: 352},
			Hybrid: par.Result{
				Wall: 1800 * time.Microsecond, Overhead: 300 * time.Microsecond,
				Phases: 4, Waves: 3, Migrated: 30, Steals: 11, Domains: 2,
				DomainSteals: []int64{7, 4}, DomainMigrated: []int64{18, 12}, AppResult: 352,
			},
			RIPSSpeedup: 1.8, StealSpeedup: 1.9, HybridSpeedup: 2.1,
			RIPSEff: 0.9, StealEff: 0.95, HybridEff: 0.97,
		},
	}
	sp := &SystemPhaseJSON{Workers: 16, TasksPerWorker: 64, Phases: 8, SerialNsPerPhase: 900, ParallelNsPerPhase: 400, ParallelWaves: 9}
	var buf strings.Builder
	if err := WriteParScaleJSON(&buf, nqueens.New(9, 3), 3, pts, sp); err != nil {
		t.Fatal(err)
	}
	var doc ParScaleJSON
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("BENCH_par.json does not parse: %v\n%s", err, buf.String())
	}
	if doc.Schema != ParScaleJSONSchema || doc.App != "9-queens" || doc.Reps != 3 || doc.Cores < 1 {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Points) != 1 {
		t.Fatalf("%d points, want 1", len(doc.Points))
	}
	p := doc.Points[0]
	if p.Workers != 2 || p.RIPSWallNs != 3e6 || p.RIPSOverheadNs != 4e5 ||
		p.RIPSPhases != 7 || p.RIPSWaves != 5 || p.RIPSMigrated != 120 ||
		p.StealWallNs != 2e6 || p.StealSteals != 17 || p.StealCrossSteals != 6 {
		t.Errorf("point = %+v", p)
	}
	if p.HybridWallNs != 18e5 || p.HybridOverheadNs != 3e5 || p.HybridPhases != 4 ||
		p.HybridWaves != 3 || p.HybridMigrated != 30 || p.HybridSteals != 11 ||
		p.HybridDomains != 2 || p.HybridSpeedup != 2.1 || p.HybridEff != 0.97 {
		t.Errorf("hybrid point = %+v", p)
	}
	if len(p.HybridDomainSteals) != 2 || p.HybridDomainSteals[0] != 7 || p.HybridDomainSteals[1] != 4 ||
		len(p.HybridDomainMigrate) != 2 || p.HybridDomainMigrate[0] != 18 || p.HybridDomainMigrate[1] != 12 {
		t.Errorf("hybrid per-domain counters = %v / %v", p.HybridDomainSteals, p.HybridDomainMigrate)
	}
	if doc.SystemPhase == nil || *doc.SystemPhase != *sp {
		t.Errorf("system phase = %+v, want %+v", doc.SystemPhase, sp)
	}
}

// TestSystemPhaseCompare checks the serial-vs-parallel comparison runs
// end to end: positive per-phase costs on both sides, waves fanned out
// only by the parallel apply.
func TestSystemPhaseCompare(t *testing.T) {
	sp := SystemPhaseCompare(4, 64, 3, 1)
	if sp.Workers != 4 || sp.TasksPerWorker != 64 || sp.Phases != 3 {
		t.Errorf("comparison = %+v", sp)
	}
	if sp.SerialNsPerPhase <= 0 || sp.ParallelNsPerPhase <= 0 {
		t.Errorf("non-positive per-phase costs: %+v", sp)
	}
	if sp.ParallelWaves == 0 {
		t.Errorf("parallel apply fanned out no waves: %+v", sp)
	}
}

// TestPrintParScaleGolden locks the exact rendering of the scaling
// table against testdata/parscale.golden (refresh with -update). The
// points are synthetic so the output is byte-stable: the golden file
// is about format — column alignment, units, the answer-check line —
// not about measured times.
func TestPrintParScaleGolden(t *testing.T) {
	pts := []ParScalePoint{
		{
			Workers:     1,
			RIPS:        par.Result{Wall: 8 * time.Millisecond, Phases: 9, AppResult: 352, Generated: 2352},
			Steal:       par.Result{Wall: 7500 * time.Microsecond, AppResult: 352, Generated: 2352},
			Hybrid:      par.Result{Wall: 7800 * time.Microsecond, Phases: 2, Domains: 1, AppResult: 352, Generated: 2352},
			RIPSSpeedup: 1, StealSpeedup: 1, HybridSpeedup: 1,
			RIPSEff: 0.97, StealEff: 0.99, HybridEff: 0.98,
		},
		{
			Workers:     4,
			RIPS:        par.Result{Wall: 2200*time.Microsecond + 500*time.Nanosecond, Phases: 11, Migrated: 96, AppResult: 352, Generated: 2352},
			Steal:       par.Result{Wall: 2 * time.Millisecond, Steals: 41, CrossSteals: 19, AppResult: 352, Generated: 2352},
			Hybrid:      par.Result{Wall: 1900 * time.Microsecond, Phases: 6, Migrated: 24, Steals: 28, Domains: 2, AppResult: 352, Generated: 2352},
			RIPSSpeedup: 3.64, StealSpeedup: 3.75, HybridSpeedup: 4.11,
			RIPSEff: 0.88, StealEff: 0.93, HybridEff: 0.95,
		},
	}
	var buf strings.Builder
	PrintParScale(&buf, nqueens.New(9, 3), pts)

	golden := filepath.Join("testdata", "parscale.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if buf.String() != string(want) {
		t.Errorf("PrintParScale output drifted from %s (refresh with -update):\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), want)
	}
}
