// Package app defines the workload abstraction shared by the RIPS
// runtime and the dynamic-scheduling baselines, plus a sequential
// profiler used to compute the paper's sequential time Ts and optimal
// efficiencies (Table II).
//
// An App is a deterministic task-parallel computation organised in
// globally-synchronized rounds: N-Queens and the GROMOS surrogate are
// single-round task pools; IDA* runs one round per cost-bound
// iteration (the synchronization the paper blames for IDA*'s lower
// efficiency). Within a round, executing a task may spawn child tasks;
// the runtime decides where children run — that placement policy is
// exactly what the paper compares.
//
// A task's payload travels one of two ways. Spawn.Data is any value at
// all; converting a non-pointer value to the interface allocates, once
// per task. Spawn.W is three inline words, which fit the paper's
// descriptors (a 16-byte N-Queens placement, a 17-byte IDA* frontier
// state) and cost no allocation on the real-parallel engine; every
// built-in app packs its payload there and leaves Data nil. A spawn
// whose Data is nil carries its payload in W, and Execute then receives
// a *Words.
package app

import (
	"rips/internal/invariant"
	"rips/internal/sim"
)

// Words is an inline task payload: three words the App packs its task
// descriptor into, by a layout of its own. It is a struct and not a
// [3]uint64 because Go passes no array longer than one element in
// registers: a Spawn with an array inside it reaches emit through the
// stack, built word by word and copied in 16-byte loads that the 8-byte
// stores before them cannot forward to — ~20 ns a child (DESIGN.md §7).
type Words struct{ A, B, C uint64 }

// Spawn is a task payload emitted by an App: the data the runtime
// ships between nodes and its serialized size in bytes. The payload is
// Data, or W when Data is nil.
type Spawn struct {
	Data any
	W    Words
	Size int
}

// Payload returns what Execute receives for this spawn: Data, or a
// pointer to a fresh copy of W when Data is nil. Every executor that
// stores its tasks as task.Task calls it once per task born; the
// real-parallel engine — the cluster member runs on it too — keeps the
// words in its own task node instead.
func (s Spawn) Payload() any {
	if s.Data != nil {
		return s.Data
	}
	w := s.W // a 24-byte copy escapes, not the whole spawn
	return &w
}

// App is a deterministic task-parallel computation. Execute must be a
// pure function of its payload (shared state set up at construction
// must be treated as immutable), so that a sequential profile and any
// simulated parallel execution perform identical work.
type App interface {
	// Name identifies the workload in reports, e.g. "15-queens".
	Name() string
	// Rounds is the number of globally-synchronized rounds.
	Rounds() int
	// Roots returns the tasks that seed the given round. They enter
	// the system at node 0 (the paper's SPMD programs start the root
	// computation on one processor and let the scheduler spread it).
	Roots(round int) []Spawn
	// Execute runs one task, emitting any children via emit and
	// returning the virtual compute time the task consumed. data is the
	// spawn's Data, or a *Words holding its W when Data was nil. The
	// *Words points into scratch the executor owns: Execute must not
	// write through it, and must not use it after returning.
	Execute(data any, emit func(Spawn)) sim.Time
}

// Counted is an optional App extension for workloads whose tasks
// produce a summable application-level result — N-Queens solutions
// found below a task's state, goal states reached within an IDA*
// bound. The runtimes aggregate the contributions, which gives tests a
// direct way to prove that a scheduling backend executed exactly the
// sequential computation: the aggregate must match the sequential
// profile's Result bit for bit, however tasks were placed.
type Counted interface {
	App
	// ExecuteCount is Execute returning additionally the task's
	// contribution to the application result. Implementations must
	// keep Execute and ExecuteCount behaviourally identical (same
	// children, same virtual time).
	ExecuteCount(data any, emit func(Spawn)) (sim.Time, int64)
}

// ExecuteCount runs one task, using the app's result counting when it
// implements Counted and reporting a zero contribution otherwise.
func ExecuteCount(a App, data any, emit func(Spawn)) (sim.Time, int64) {
	if c, ok := a.(Counted); ok {
		return c.ExecuteCount(data, emit) //ripslint:allow hotpath application payload execution is outside the scheduler's steady-state contract
	}
	return a.Execute(data, emit), 0 //ripslint:allow hotpath application payload execution is outside the scheduler's steady-state contract
}

// PayloadCodec is an optional App extension for workloads whose task
// payloads can cross a process boundary: the distributed cluster
// backend (internal/cluster) ships task batches between nodes as
// rips-wire/v1 frames, serializing each payload through this codec.
// The encoding must be canonical and self-contained — DecodePayload on
// another process running the identically-constructed App must yield a
// payload Execute treats exactly like the original, so a task executes
// the same work wherever it lands. Apps without the extension run on
// the single-process backends only.
type PayloadCodec interface {
	App
	// AppendPayload appends data's canonical encoding to dst and
	// returns the extended slice (append-style, so batch encoders reuse
	// one buffer). Unknown payload types are errors, never panics.
	AppendPayload(dst []byte, data any) ([]byte, error)
	// DecodePayload decodes one payload produced by AppendPayload.
	// Truncated or malformed input is an error, never a panic.
	DecodePayload(p []byte) (any, error)
	// DecodeInto is DecodePayload for a receiver that owns the storage:
	// it accepts exactly the inputs DecodePayload accepts and writes the
	// inline words DecodePayload would have boxed into w, so a task
	// arriving off the wire lands in the executor's own task node without
	// an allocation. w is untouched on error.
	DecodeInto(p []byte, w *Words) error
}

// DecodeBoxed is DecodePayload on top of a codec's DecodeInto: the same
// checks, the words in a box of their own. The built-in codecs implement
// DecodePayload with it, so each has one decoder.
func DecodeBoxed(c PayloadCodec, p []byte) (any, error) {
	w := new(Words)
	if err := c.DecodeInto(p, w); err != nil {
		return nil, err
	}
	return w, nil
}

// WireSerializable reports whether a's task payloads can cross a
// process boundary.
func WireSerializable(a App) bool {
	_, ok := a.(PayloadCodec)
	return ok
}

// BlockDistributed marks apps whose root tasks start block-distributed
// across the machine — the static SPMD decomposition a real code like
// GROMOS performs at startup (each processor owns its atom block).
// Roots of such apps enter the system at node floor(k*N/len(roots))
// for root index k; apps without this marker start at node 0.
type BlockDistributed interface {
	BlockDistributed() bool
}

// RootsDistributed reports whether a's roots start block-distributed.
func RootsDistributed(a App) bool {
	b, ok := a.(BlockDistributed)
	return ok && b.BlockDistributed()
}

// RootBlock returns the half-open index range of a round's roots that
// start on the given node, under the block distribution.
func RootBlock(numRoots, n, node int) (lo, hi int) {
	return numRoots * node / n, numRoots * (node + 1) / n
}

// RoundProfile is the sequential execution profile of one round.
type RoundProfile struct {
	Tasks   int
	Work    sim.Time // total work in the round
	MaxTask sim.Time // largest single task
}

// Profile is the sequential execution profile of a whole App.
type Profile struct {
	Name   string
	Tasks  int
	Work   sim.Time // Ts: the sequential execution time
	Rounds []RoundProfile
	// Result is the aggregated application result of Counted apps
	// (e.g. the solution count); 0 for apps without result counting.
	Result int64
}

// Measure executes the App sequentially (children run depth-first on
// the spot) and profiles it. Because Execute is deterministic, the
// totals equal what any simulated parallel run performs.
func Measure(a App) Profile {
	p := Profile{Name: a.Name(), Rounds: make([]RoundProfile, a.Rounds())}
	for r := 0; r < a.Rounds(); r++ {
		rp := &p.Rounds[r]
		stack := a.Roots(r)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			w, res := ExecuteCount(a, t.Payload(), func(s Spawn) { stack = append(stack, s) })
			p.Result += res
			rp.Tasks++
			rp.Work += w
			if w > rp.MaxTask {
				rp.MaxTask = w
			}
		}
		p.Tasks += rp.Tasks
		p.Work += rp.Work
	}
	return p
}

// OptimalTime is the best possible parallel execution time of the
// profiled computation on n processors under the paper's Table II
// assumptions — optimal scheduling, zero overhead: each round takes
// max(round work / n, longest task), and rounds are serialized by the
// global synchronization.
func (p Profile) OptimalTime(n int) sim.Time {
	if n <= 0 {
		invariant.Violated("app: OptimalTime on %d processors", n)
	}
	var t sim.Time
	for _, r := range p.Rounds {
		per := r.Work / sim.Time(n)
		if r.Work%sim.Time(n) != 0 {
			per++
		}
		if per < r.MaxTask {
			per = r.MaxTask
		}
		t += per
	}
	return t
}

// OptimalEfficiency is Ts / (N * OptimalTime): the paper's Table II.
func (p Profile) OptimalEfficiency(n int) float64 {
	ot := p.OptimalTime(n)
	if ot == 0 {
		return 1
	}
	return float64(p.Work) / (float64(n) * float64(ot))
}
