//ripslint:allow-file wallclock spans are wall-clock intervals around the public calls of each layer; timing them is what a traced benchmark run is for

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary: the call into a
// layer's public entry point, or a slice of it the layer reports (a
// system phase). Spans of one job share Job; Parent is the ID of the
// span that caused this one, 0 for a job's root.
type span struct {
	Name       string
	Job        int
	ID, Parent int
	Client     int
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: the workloads test for it and time nothing extra.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span whose end is not known yet and returns its ID,
// so children can name their parent before close sets the end.
func (t *tracer) open(name string, job, client, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Job: job, ID: id, Parent: parent, Client: client, Start: start.Sub(t.epoch)})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.epoch)
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, job, client, parent int, start, end time.Time) int {
	id := t.open(name, job, client, parent, start)
	t.close(id, end)
	return id
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Overlapping children (two SSE
// events in flight, a phase straddling another) count once, and a
// child reaching outside its parent is clipped to it.
func selfTimes(spans []span) []time.Duration {
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals is one row of the traced run's budget table: how many
// spans carried a name, their summed duration and summed self time.
type spanTotals struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// budget sums spans by name, in order of first appearance.
func budget(spans []span) []spanTotals {
	self := selfTimes(spans)
	at := map[string]int{}
	var rows []spanTotals
	for i, s := range spans {
		k, ok := at[s.Name]
		if !ok {
			k = len(rows)
			at[s.Name] = k
			rows = append(rows, spanTotals{Name: s.Name})
		}
		rows[k].Count++
		rows[k].Total += s.End - s.Start
		rows[k].Self += self[i]
	}
	return rows
}

// traceFileJobs caps how many jobs' spans go into the trace file: the
// metrics use every span, but serve_mix traces tens of thousands of
// jobs and a timeline is read a few jobs at a time.
const traceFileJobs = 2000

// writeChromeTrace writes the spans as Chrome trace-event JSON, the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load. Each
// client is a thread lane; span identity rides in args.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	self := selfTimes(spans)
	jobs := map[int]bool{}
	_, err = w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range spans {
		if err != nil {
			break
		}
		if !jobs[s.Job] {
			if len(jobs) == traceFileJobs {
				continue
			}
			jobs[s.Job] = true
		}
		var b []byte
		b, err = json.Marshal(event{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Client,
			Args: map[string]int{"job": s.Job, "id": s.ID, "parent": s.Parent, "self_ns": int(self[i])},
		})
		if err != nil {
			break
		}
		if !first {
			b = append([]byte(",\n"), b...)
		}
		first = false
		_, err = w.Write(b)
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
