package cluster

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"rips"
	"rips/internal/app"
)

// scriptKey is the link key of the scripted job 7.
const scriptKey = "script/7"

// scriptedMember starts one member session of job 7, a job of two, on
// the far end of a net.Pipe and returns the session's protocol state,
// the near end — the test plays coordinator on it, and the other member
// at "mem://partner" on the node's in-memory network — and a function
// that waits for the session to return and for every goroutine it
// started (the engine's worker, the readers and heartbeats of its peer
// and links) to be gone.
func scriptedMember(t *testing.T, appName string, size, member int) (*memberRun, *peer, func()) {
	t.Helper()
	n := startCluster(t, NewMemTransport(), 1, nil)[0]
	addrs := []string{"mem://partner", "mem://partner"}
	addrs[member] = n.Addr()
	m, err := n.newMember(attachMsg{Job: 7, App: appName, Size: size, K: 2, Member: member, Key: scriptKey, Members: addrs}.encode())
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe()
	coord := newPeer(near, n.opts.HeartbeatInterval, n.opts.HeartbeatTimeout, nil)
	t.Cleanup(coord.close)
	base := runtime.NumGoroutine()
	over := make(chan struct{})
	go func() {
		defer close(over)
		m.serve(far)
	}()
	return m, coord, func() {
		t.Helper()
		select {
		case <-over:
		case <-time.After(5 * time.Second):
			t.Fatal("the member session is still running")
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the session", runtime.NumGoroutine(), base)
			}
		}
	}
}

// expect receives the member's next frame, which must be of type want.
func expect(t *testing.T, coord *peer, want frameType) frame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := coord.recv(ctx)
	if err != nil {
		t.Fatalf("waiting for the member's %v: %v", want, err)
	}
	if f.t != want {
		t.Fatalf("member sent %v, want %v", f.t, want)
	}
	return f
}

func say(t *testing.T, coord *peer, ft frameType, payload []byte) {
	t.Helper()
	if err := coord.send(ft, payload); err != nil {
		t.Fatalf("sending %v: %v", ft, err)
	}
}

// plan tells the member its part of a phase's plan; none is a bare
// resume.
func plan(t *testing.T, coord *peer, ops ...planOp) {
	t.Helper()
	say(t, coord, fPlan, planMsg{Job: 7, Ops: ops}.encode())
}

// phase plays one empty system phase some other member caused: PHASE,
// the member's LOADS (which must report load), an empty PLAN.
func phase(t *testing.T, coord *peer, load int) {
	t.Helper()
	say(t, coord, fPhase, encodeJob(7))
	if m, err := decodeLoads(expect(t, coord, fLoads).payload); err != nil || m.Load != load {
		t.Fatalf("member reported load %+v, %v; want %d", m, err, load)
	}
	plan(t, coord)
}

// partnerLink dials the member's node as the job's other member and
// opens a member link to the session.
func partnerLink(t *testing.T, m *memberRun, from int) *peer {
	t.Helper()
	conn, err := m.n.opts.Transport.Dial(m.n.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	link := newPeer(conn, m.n.opts.HeartbeatInterval, m.n.opts.HeartbeatTimeout, nil)
	t.Cleanup(link.close)
	say(t, link, fLink, linkMsg{Key: scriptKey, From: from}.encode())
	return link
}

// rootBatch is a batch of count copies of a's first root under distinct
// ids, addressed to member `to` of job 7.
func rootBatch(t *testing.T, a app.App, to, count int) []byte {
	t.Helper()
	batch := appendBatchHeader(nil, 7, to)
	for i := 0; i < count; i++ {
		var err error
		if batch, err = appendBatchTask(batch, a.(app.PayloadCodec), uint64(99+i), 0, a.Roots(0)[0].Payload()); err != nil {
			t.Fatal(err)
		}
	}
	setBatchCount(batch, count)
	return batch
}

// TestMemberBackoffCounter drives one member with a scripted coordinator
// through the three rules of its drain-announcement backoff. The counter
// is read after a frame the member sent later than it last wrote it, so
// the pipe orders the read.
func TestMemberBackoffCounter(t *testing.T) {
	m, coord, ended := scriptedMember(t, "nq", 6, 1)
	if ld, err := decodeLoads(expect(t, coord, fAttachOK).payload); err != nil || ld.Load != 0 {
		t.Fatalf("member 1 of a job rooted on member 0 attached with %+v, %v", ld, err)
	}
	plan(t, coord)

	// Rule 1: the counter advances when the member's own announcement
	// came back empty, once per announcement, and the next announcement
	// waits for it. The announcement is the member's load report: the
	// coordinator answers it with the plan, no PHASE in between.
	for want := 0; want < 6; want++ {
		sent := time.Now()
		expect(t, coord, fDrained)
		if m.idle != want {
			t.Fatalf("announcement %d made at idle = %d", want, m.idle)
		}
		if want > 0 && time.Since(sent) < backoff(want) {
			t.Errorf("announcement %d came %v after the resume, backoff is %v", want, time.Since(sent), backoff(want))
		}
		plan(t, coord)
	}

	// Rule 2: a PHASE that finds the member waiting out its backoff (32 ms
	// now) is served without an announcement and leaves the counter alone.
	resumed := time.Now()
	phase(t, coord, 0) // its LOADS must be the next frame: expect fails on a DRAINED
	expect(t, coord, fDrained)
	if m.idle != 6 {
		t.Errorf("a PHASE interrupting the backoff moved idle from 6 to %d", m.idle)
	}
	if waited := time.Since(resumed); waited < backoff(6) {
		t.Errorf("the announcement after the interrupted wait came after %v, backoff is %v", waited, backoff(6))
	}

	// Rule 3: receiving a task resets it. The task comes from member 0 on
	// a member link, ahead of the PLAN that announces it.
	a, _ := rips.LookupApp("nq", 6)
	say(t, partnerLink(t, m, 0), fBatch, rootBatch(t, a, 1, 1))
	plan(t, coord, planOp{Recv: true, Peer: 0, Count: 1})
	expect(t, coord, fDrained) // at once: the member ran 6-Queens and announces at idle 0
	if m.idle != 0 {
		t.Errorf("idle = %d after the member received work", m.idle)
	}

	// FINISH: the counters of exactly that subtree, its root nonlocal.
	say(t, coord, fFinish, encodeJob(7))
	cm, err := decodeCounters(expect(t, coord, fCounters).payload)
	prof := app.Measure(a)
	if err != nil || cm.Executed != int64(prof.Tasks) || cm.Generated != cm.Executed-1 || cm.Nonlocal != 1 ||
		cm.AppResult != prof.Result || cm.Work != int64(prof.Work) {
		t.Errorf("counters %+v, %v; want 6-Queens (%d tasks, result %d, work %d) less the root it did not generate", cm, err, prof.Tasks, prof.Result, prof.Work)
	}
	ended()
}

// TestMemberStopsOnCancelAndOnLostCoordinator: a CANCEL frame and the
// death of the connection each end a member that is in the middle of
// its user phase — raised by the reader, not found at a poll — with its
// tasks abandoned, no counters sent and no goroutine left.
func TestMemberStopsOnCancelAndOnLostCoordinator(t *testing.T) {
	for _, how := range []string{"cancel", "lost"} {
		_, coord, ended := scriptedMember(t, "nq", 14, 0)
		if ld, err := decodeLoads(expect(t, coord, fAttachOK).payload); err != nil || ld.Load != 1 {
			t.Fatalf("member 0 attached with %+v, %v", ld, err)
		}
		plan(t, coord)
		time.Sleep(20 * time.Millisecond) // 14-Queens takes this member a few hundred
		if how == "cancel" {
			say(t, coord, fCancel, cancelMsg{Job: 7, Reason: "test"}.encode())
		} else {
			coord.close()
		}
		ended()
		if how == "cancel" {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			if f, err := coord.recv(ctx); err == nil {
				t.Errorf("a canceled member sent %v", f.t)
			}
			cancel()
		}
	}
}

// TestClusterSingleP runs a whole job on one P: the member that got
// IDA*'s single root shares the processor with its peer reader, the
// coordinator and the other member, and the job must still end with
// the sequential answer and with tasks executed away from their
// origin — system phases interleaved with execution rather than the
// work staying serialised on member 0.
func TestClusterSingleP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node protocol run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nodes := startCluster(t, NewMemTransport(), 2, nil)

	a, err := rips.LookupApp("ida", 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := app.Measure(a)
	res, err := nodes[0].Submit(context.Background(), clusterSpec("ida", 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if res.Canceled {
		t.Fatal("job reported canceled")
	}
	if res.AppResult != prof.Result || res.Executed != int64(prof.Tasks) || res.VirtualWork != prof.Work {
		t.Errorf("result/executed/work = %d/%d/%d, want the sequential %d/%d/%d",
			res.AppResult, res.Executed, res.VirtualWork, prof.Result, prof.Tasks, prof.Work)
	}
	if res.Nonlocal == 0 {
		t.Errorf("nonlocal = 0 over %d phases: the member holding the root never yielded to a system phase", res.Phases)
	}
}
