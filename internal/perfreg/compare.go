package perfreg

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"rips/internal/difftest"
	"rips/internal/ripsrt"
)

// Drift is one metric disagreeing between baseline and current.
type Drift struct {
	Config string
	Metric string
	Want   int64 // baseline value
	Got    int64 // current value
	// Absent names the side that does not carry the metric at all
	// ("baseline" or "current"); empty when both do and the values
	// differ.
	Absent string
}

func (d Drift) String() string {
	got, want := strconv.FormatInt(d.Got, 10), strconv.FormatInt(d.Want, 10)
	switch d.Absent {
	case "baseline":
		want = "absent"
	case "current":
		got = "absent"
	}
	return fmt.Sprintf("EXACT drift [%s] %s: got %s, baseline %s", d.Config, d.Metric, got, want)
}

// Report is the outcome of one baseline comparison.
type Report struct {
	// Entries is the number of baseline entries compared.
	Entries int
	// Exact holds the metric drifts; any entry here fails the
	// comparison.
	Exact []Drift
	// Missing lists baseline configurations absent from the current
	// measurement — also fatal: a probe point that can no longer run
	// is itself a regression.
	Missing []string
}

// Failed reports whether the comparison gates: any exact drift or
// missing probe point.
func (r *Report) Failed() bool { return len(r.Exact)+len(r.Missing) > 0 }

// Print streams the report in log form: exact drifts, then missing
// points.
func (r *Report) Print(w io.Writer) {
	for _, d := range r.Exact {
		fmt.Fprintln(w, d)
	}
	for _, c := range r.Missing {
		fmt.Fprintf(w, "MISSING [%s]: baseline probe point was not measured\n", c)
	}
	fmt.Fprintf(w, "compared %d lattice points: %d exact drifts, %d missing\n",
		r.Entries, len(r.Exact), len(r.Missing))
}

// unionKeys returns the metric names of either map, sorted so reports
// (and tests over them) are stable.
func unionKeys(a, b map[string]int64) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Compare checks a fresh measurement against the committed baseline.
// Metrics must match bit-for-bit — they are pure functions of
// configuration and seed, so any difference is a behavioral change in
// the scheduling protocol, intended (then regenerate the baseline with
// -update) or not (a regression). A metric only one side carries is a
// drift too: a quantity the baseline never recorded is not gated until
// the baseline is regenerated. Entries present only in current are
// ignored: the baseline defines the probe grid.
func Compare(baseline, current *Document) *Report {
	rep := &Report{}
	cur := make(map[string]Entry, len(current.Entries))
	for _, e := range current.Entries {
		cur[e.Config] = e
	}
	for _, be := range baseline.Entries {
		rep.Entries++
		ce, ok := cur[be.Config]
		if !ok {
			rep.Missing = append(rep.Missing, be.Config)
			continue
		}
		for _, k := range unionKeys(be.Exact, ce.Exact) {
			want, inBase := be.Exact[k]
			got, inCur := ce.Exact[k]
			d := Drift{Config: be.Config, Metric: k, Want: want, Got: got}
			switch {
			case !inBase:
				d.Absent = "baseline"
			case !inCur:
				d.Absent = "current"
			case got == want:
				continue
			}
			rep.Exact = append(rep.Exact, d)
		}
	}
	return rep
}

// configCost ranks a lattice configuration for reproducer selection:
// cheapest app first (the difftest.Apps order is cheapest-first by
// construction), then fewest workers, then simplest topology, laziest
// policy, smallest seed. The baseline is defined only at its recorded
// probe points, so unlike difftest.Shrink the reproducer cannot wander
// off-lattice — MinimalRepro picks the cheapest *failing* point.
func configCost(c difftest.Config) [5]int {
	appRank := 0
	for i, s := range difftest.Apps() {
		if s.Name == c.App {
			appRank = i
			break
		}
	}
	topoRank := map[string]int{"mesh": 0, "tree": 1, "hypercube": 2}[c.Topology]
	policyRank := 0
	if c.Global == ripsrt.All {
		policyRank += 2
	}
	if c.Local == ripsrt.Eager {
		policyRank++
	}
	return [5]int{appRank, c.Workers, topoRank, policyRank, int(c.Seed)}
}

func costLess(a, b [5]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// MinimalRepro returns the cheapest failing configuration of a failed
// comparison — the one to hand a human, in the canonical form
// `ripsbench lattice -config "..."` re-runs verbatim. ok is false when
// the report did not fail or no failing config parses.
func MinimalRepro(rep *Report) (cfg difftest.Config, ok bool) {
	seen := map[string]bool{}
	var failing []string
	for _, d := range rep.Exact {
		if !seen[d.Config] {
			seen[d.Config] = true
			failing = append(failing, d.Config)
		}
	}
	for _, c := range rep.Missing {
		if !seen[c] {
			seen[c] = true
			failing = append(failing, c)
		}
	}
	for _, s := range failing {
		c, err := difftest.Parse(s)
		if err != nil {
			continue
		}
		if !ok || costLess(configCost(c), configCost(cfg)) {
			cfg, ok = c, true
		}
	}
	return cfg, ok
}
