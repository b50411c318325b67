package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/sim"
)

// testOpts are aggressive timings so failure paths resolve in test
// time: heartbeats every 20ms, a silent peer is dead after 500ms.
func testOpts(tr Transport, addr string) Options {
	return Options{
		Addr:              addr,
		Transport:         tr,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  500 * time.Millisecond,
		StabilizeInterval: 40 * time.Millisecond,
		DialTimeout:       500 * time.Millisecond,
	}
}

// startCluster brings up k nodes on one in-memory network and joins
// them into a ring.
func startCluster(t *testing.T, tr Transport, k int, mod func(*Options)) []*Node {
	t.Helper()
	nodes := make([]*Node, k)
	for i := 0; i < k; i++ {
		opts := testOpts(tr, fmt.Sprintf("mem://node%d", i))
		if mod != nil {
			mod(&opts)
		}
		n, err := Start(opts)
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		t.Cleanup(func() { _ = n.Close() })
		nodes[i] = n
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join node %d: %v", i, err)
			}
		}
	}
	for i, n := range nodes {
		if got := len(n.Members()); got != k {
			t.Fatalf("node %d sees %d members, want %d", i, got, k)
		}
	}
	return nodes
}

func clusterSpec(appName string, size int) rips.JobSpec {
	return rips.JobSpec{App: appName, Size: size, Config: rips.ConfigJSON{Backend: "cluster"}}
}

// TestClusterNQ12 is the heart of the PR's contract: a 3-process
// cluster must produce the bit-identical answer the sequential profile
// produces — same task count, same virtual work, same application
// result — however the phase protocol scattered the tasks.
func TestClusterNQ12(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node protocol run")
	}
	nodes := startCluster(t, NewMemTransport(), 3, nil)

	a, err := rips.LookupApp("nq", 12)
	if err != nil {
		t.Fatal(err)
	}
	prof := app.Measure(a)

	// Submit to a follower: the ring routes to the coordinator.
	res, err := nodes[2].Submit(context.Background(), clusterSpec("nq", 12))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Canceled {
		t.Fatal("job reported canceled")
	}
	if res.Workers != 3 {
		t.Errorf("workers = %d, want 3", res.Workers)
	}
	if res.AppResult != prof.Result {
		t.Errorf("app result = %d, want %d (12-queens solutions)", res.AppResult, prof.Result)
	}
	if res.Generated != int64(prof.Tasks) || res.Executed != int64(prof.Tasks) {
		t.Errorf("generated/executed = %d/%d, want %d", res.Generated, res.Executed, prof.Tasks)
	}
	if res.VirtualWork != prof.Work {
		t.Errorf("virtual work = %d, want %d", res.VirtualWork, prof.Work)
	}
	if res.Nonlocal == 0 {
		t.Errorf("nonlocal = 0: no task ever crossed the wire in a 3-node run")
	}
	if res.Phases == 0 {
		t.Errorf("phases = 0: the phase protocol never ran")
	}
}

// TestClusterEveryNodeAnswersTheSame submits the same job through
// every node: the unified job API means the entry point must not
// matter.
func TestClusterEveryNodeAnswersTheSame(t *testing.T) {
	nodes := startCluster(t, NewMemTransport(), 3, nil)
	for i, n := range nodes {
		res, err := n.Submit(context.Background(), clusterSpec("nq", 8))
		if err != nil {
			t.Fatalf("submit via node %d: %v", i, err)
		}
		if res.AppResult != 92 {
			t.Errorf("via node %d: app result %d, want 92", i, res.AppResult)
		}
	}
}

// slowApp is a block-distributed workload whose tasks take real time,
// so a test can kill a node while the job is provably mid-run. It
// counts one result unit per task.
type slowApp struct {
	tasks int
	delay time.Duration
}

func (a *slowApp) Name() string           { return "slow" }
func (a *slowApp) Rounds() int            { return 1 }
func (a *slowApp) BlockDistributed() bool { return true }
func (a *slowApp) Roots(int) []app.Spawn {
	roots := make([]app.Spawn, a.tasks)
	for i := range roots {
		roots[i] = app.Spawn{W: app.Words{A: uint64(i)}, Size: 4}
	}
	return roots
}
func (a *slowApp) Execute(data any, emit func(app.Spawn)) sim.Time {
	time.Sleep(a.delay)
	return 1
}
func (a *slowApp) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	return a.Execute(data, emit), 1
}
func (a *slowApp) AppendPayload(dst []byte, data any) ([]byte, error) {
	w, ok := data.(*app.Words)
	if !ok {
		return nil, fmt.Errorf("slow: payload %T", data)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(w.A)), nil
}
func (a *slowApp) DecodePayload(p []byte) (any, error) { return app.DecodeBoxed(a, p) }
func (a *slowApp) DecodeInto(p []byte, w *app.Words) error {
	if len(p) != 4 {
		return fmt.Errorf("slow: payload is %d bytes", len(p))
	}
	*w = app.Words{A: uint64(binary.BigEndian.Uint32(p))}
	return nil
}

// TestClusterNodeDeathMidJob kills a node while a job is running and
// requires the typed failure semantics: a partial Result{Canceled}
// with a *NodeLostError, delivered promptly — never a hang.
func TestClusterNodeDeathMidJob(t *testing.T) {
	slow := &slowApp{tasks: 300, delay: 5 * time.Millisecond}
	resolver := func(name string, size int) (app.App, error) {
		if name == "slow" {
			return slow, nil
		}
		return rips.LookupApp(name, size)
	}
	nodes := startCluster(t, NewMemTransport(), 3, func(o *Options) { o.Resolver = resolver })

	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := nodes[0].Submit(context.Background(), clusterSpec("slow", 0))
		done <- outcome{res, err}
	}()
	// Let the job get moving, then kill a node that holds a block of
	// the work. Node 0 is the submitter; killing node 1 covers both
	// the member-death and coordinator-death paths depending on where
	// the ring put the coordinator.
	time.Sleep(150 * time.Millisecond)
	_ = nodes[1].Close()

	select {
	case out := <-done:
		if !out.res.Canceled {
			t.Errorf("result not marked canceled: %+v", out.res)
		}
		var lost *NodeLostError
		if !errors.As(out.err, &lost) {
			t.Fatalf("want *NodeLostError, got %v", out.err)
		}
		if lost.Addr == "" {
			t.Errorf("NodeLostError names no node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node death hung the job instead of canceling it")
	}
}

// TestClusterTimeout proves Config.Timeout bounds a cluster job the
// same way it bounds an in-process run: Canceled result, deadline
// error.
func TestClusterTimeout(t *testing.T) {
	slow := &slowApp{tasks: 1000, delay: 5 * time.Millisecond}
	resolver := func(name string, size int) (app.App, error) { return slow, nil }
	nodes := startCluster(t, NewMemTransport(), 3, func(o *Options) { o.Resolver = resolver })

	spec := clusterSpec("slow", 0)
	spec.Config.TimeoutNS = int64(200 * time.Millisecond)
	res, err := nodes[0].Submit(context.Background(), spec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !res.Canceled {
		t.Error("timed-out result not marked canceled")
	}
}

// TestClusterKillAndRejoin is the membership churn story: a node dies
// between jobs, the ring notices and shrinks, answers stay right; the
// node comes back under the same address, the ring grows, answers stay
// right.
func TestClusterKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node protocol run with churn")
	}
	tr := NewMemTransport()
	nodes := startCluster(t, tr, 3, nil)

	res, err := nodes[1].Submit(context.Background(), clusterSpec("nq", 8))
	if err != nil || res.AppResult != 92 {
		t.Fatalf("3-node nq8: %v, result %+v", err, res)
	}

	// Kill node 2 and wait for the survivors to drop it.
	_ = nodes[2].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(nodes[0].Members()) == 2 && len(nodes[1].Members()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors never dropped the dead node: %v / %v", nodes[0].Members(), nodes[1].Members())
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err = nodes[0].Submit(context.Background(), clusterSpec("nq", 8))
	if err != nil || res.AppResult != 92 {
		t.Fatalf("2-node nq8 after death: %v, result %+v", err, res)
	}
	if res.Workers != 2 {
		t.Errorf("post-death workers = %d, want 2", res.Workers)
	}

	// Rejoin under the same address; the direct announcements clear
	// the survivors' suspicion.
	reborn, err := Start(testOpts(tr, "mem://node2"))
	if err != nil {
		t.Fatalf("restart node 2: %v", err)
	}
	t.Cleanup(func() { _ = reborn.Close() })
	if err := reborn.Join(nodes[0].Addr()); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	for {
		if len(nodes[0].Members()) == 3 && len(nodes[1].Members()) == 3 && len(reborn.Members()) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never regrew: %v / %v / %v", nodes[0].Members(), nodes[1].Members(), reborn.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}

	res, err = reborn.Submit(context.Background(), clusterSpec("nq", 12))
	if err != nil {
		t.Fatalf("post-rejoin nq12: %v", err)
	}
	if res.AppResult != 14200 || res.Workers != 3 {
		t.Fatalf("post-rejoin nq12: result %d on %d workers, want 14200 on 3", res.AppResult, res.Workers)
	}
}

// TestRegisteredAppsAreWireSerializable: every app family the public
// registry can build must be able to cross the wire, or a cluster
// submission for it would fail at attach time.
func TestRegisteredAppsAreWireSerializable(t *testing.T) {
	for _, name := range rips.Apps() {
		a, err := rips.LookupApp(name, 0)
		if err != nil {
			t.Fatalf("LookupApp(%q, 0): %v", name, err)
		}
		if !app.WireSerializable(a) {
			t.Errorf("app %q has no PayloadCodec", name)
		}
	}
}

// TestClusterStatus sanity-checks the /v1/cluster document's content.
func TestClusterStatus(t *testing.T) {
	nodes := startCluster(t, NewMemTransport(), 3, nil)
	st := nodes[0].Status()
	if st.Wire != WireSchema {
		t.Errorf("wire = %q, want %q", st.Wire, WireSchema)
	}
	if len(st.Members) != 3 {
		t.Fatalf("status lists %d members, want 3", len(st.Members))
	}
	selfs := 0
	for _, m := range st.Members {
		if m.Self {
			selfs++
		}
		if len(m.RingID) != 16 {
			t.Errorf("ring id %q is not 16 hex digits", m.RingID)
		}
	}
	if selfs != 1 {
		t.Errorf("status marks %d members as self, want 1", selfs)
	}
}

// TestEchoRTT exercises the latency probe the bench harness fits its
// alpha/beta model from.
func TestEchoRTT(t *testing.T) {
	nodes := startCluster(t, NewMemTransport(), 2, nil)
	rtts, err := nodes[0].EchoRTT(nodes[1].Addr(), make([]byte, 1024), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rtts) != 3 {
		t.Fatalf("got %d rtts, want 3", len(rtts))
	}
	for _, d := range rtts {
		if d <= 0 {
			t.Errorf("non-positive rtt %v", d)
		}
	}
}
