package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/topo"
)

// tapTransport records every connection dialed through it: where it
// went and the bytes that crossed it, one stream per direction.
type tapTransport struct {
	Transport
	mu    sync.Mutex
	conns []*tapConn
}

type tapConn struct {
	net.Conn
	to string

	mu        sync.Mutex
	out, back bytes.Buffer // dialer → listener, listener → dialer
}

func (t *tapTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := t.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: conn, to: addr}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc, nil
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.back.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// frames parses one recorded stream; a frame cut short by the
// connection's end is dropped.
func frames(t *testing.T, stream *bytes.Buffer) []frame {
	t.Helper()
	var fs []frame
	r := bytes.NewReader(stream.Bytes())
	for {
		ft, payload, err := readFrame(r)
		if err == io.EOF || errors.Is(err, ErrTruncated) {
			return fs
		}
		if err != nil {
			t.Fatalf("recorded stream does not parse: %v", err)
		}
		if ft != fHeartbeat {
			fs = append(fs, frame{ft, payload})
		}
	}
}

// census sorts a job's recorded connections into coordinator
// connections (opened by ATTACH) and member links (opened by LINK, keyed
// "from→address") and holds each to the frames it may carry.
func (t *tapTransport) census(tt *testing.T) (coord [][2][]frame, links map[string][]frame) {
	tt.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	links = map[string][]frame{}
	for _, c := range t.conns {
		c.mu.Lock()
		out, back := frames(tt, &c.out), frames(tt, &c.back)
		c.mu.Unlock()
		if len(out) == 0 {
			continue
		}
		switch out[0].t {
		case fAttach:
			coord = append(coord, [2][]frame{out, back})
		case fLink:
			lk, err := decodeLink(out[0].payload)
			if err != nil {
				tt.Fatal(err)
			}
			for _, f := range out[1:] {
				if f.t != fBatch {
					tt.Errorf("a member link carried a %v frame", f.t)
				}
			}
			if len(back) != 0 {
				tt.Errorf("the receiving end of a member link sent %v", back[0].t)
			}
			links[string(rune('0'+lk.From))+"→"+c.to] = out[1:]
		}
	}
	return coord, links
}

// TestPhaseFrameCensus counts what one system phase costs the
// coordinator at k = 2: the members are scripted on net.Pipes, member 1
// drains, member 0 reports six tasks. The coordinator reads exactly the
// DRAINED and one LOADS, and writes exactly one PHASE — to the member
// that did not announce — and two PLANs: member 0 sends three tasks,
// member 1 receives them. Nothing else crosses its connections before it
// is canceled, and no type it writes is one of the retired four.
func TestPhaseFrameCensus(t *testing.T) {
	n := startCluster(t, NewMemTransport(), 1, nil)[0]
	a, err := rips.LookupApp("nq", 8)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordRun(n, 7, []string{"mem://m0", "mem://m1"}, a, mirrorFor("mesh", 2))
	defer c.closeAll()
	var member [2]*peer
	for i := range member {
		near, far := net.Pipe()
		c.join(i, near)
		member[i] = newPeer(far, n.opts.HeartbeatInterval, n.opts.HeartbeatTimeout, nil)
		defer member[i].close()
		say(t, member[i], fAttachOK, loadsMsg{Job: 7, Load: 2}.encode())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.collect(ctx, fAttachOK); err != nil {
		t.Fatal(err)
	}
	driven := make(chan error, 1)
	go func() {
		_, err := c.drive(ctx)
		driven <- err
	}()
	wantPlan := func(i int, ops ...planOp) {
		t.Helper()
		got, err := decodePlan(expect(t, member[i], fPlan).payload, 2, i)
		if err != nil || !reflect.DeepEqual(got.Ops, ops) {
			t.Fatalf("member %d was planned %+v, %v; want %+v", i, got.Ops, err, ops)
		}
	}
	wantPlan(0) // two tasks each: balanced, a bare resume
	wantPlan(1)

	say(t, member[1], fDrained, encodeJob(7))
	expect(t, member[0], fPhase)
	say(t, member[0], fLoads, loadsMsg{Job: 7, Load: 6}.encode())
	wantPlan(0, planOp{Peer: 1, Count: 3})
	wantPlan(1, planOp{Recv: true, Peer: 0, Count: 3})

	// Member 1 was sent no PHASE, and neither member anything after its
	// PLAN: the next frame each sees is the CANCEL of the job's end.
	cancel()
	if err := <-driven; !errors.Is(err, context.Canceled) {
		t.Fatalf("drive returned %v", err)
	}
	expect(t, member[0], fCancel)
	expect(t, member[1], fCancel)
	for _, retired := range []frameType{15, 17, 18, 20} {
		if _, named := frameNames[retired]; named {
			t.Errorf("frame type %d is retired and must stay unassigned, it is %v", retired, retired)
		}
	}
}

// TestCoordinatorNeverSeesABatch records every connection of a two-node
// job: the coordinator's connections carry the protocol's small frames
// only — no batch, none of the retired types, a few hundred bytes a
// phase — and every task that crossed did so on a member link.
func TestCoordinatorNeverSeesABatch(t *testing.T) {
	tap := &tapTransport{Transport: NewMemTransport()}
	nodes := startCluster(t, tap, 2, nil)
	res, err := nodes[0].Submit(context.Background(), clusterSpec("nq", 10))
	if err != nil || res.AppResult != 724 || res.Nonlocal == 0 {
		t.Fatalf("nq10 on two nodes: %+v, %v", res, err)
	}
	coord, links := tap.census(t)
	if len(coord) != 2 {
		t.Fatalf("%d coordinator connections, want 2", len(coord))
	}
	toMember := map[frameType]bool{fAttach: true, fPhase: true, fPlan: true, fRound: true, fFinish: true}
	toCoord := map[frameType]bool{fAttachOK: true, fDrained: true, fLoads: true, fCounters: true}
	var phases, plans, bytesSeen int
	for _, c := range coord {
		for _, f := range c[0] {
			if !toMember[f.t] {
				t.Errorf("the coordinator wrote a %v frame", f.t)
			}
			if f.t == fPhase {
				phases++
			}
			if f.t == fPlan {
				plans++
			}
			bytesSeen += len(f.payload)
		}
		for _, f := range c[1] {
			if !toCoord[f.t] {
				t.Errorf("the coordinator was sent a %v frame", f.t)
			}
			bytesSeen += len(f.payload)
		}
	}
	// One PHASE a phase (the announcer gets none), and a PLAN to each
	// member after the attach and after every phase but the last, which
	// finds nothing left and ends in FINISH.
	if int64(phases) != res.Phases || int64(plans) != 2*res.Phases {
		t.Errorf("%d phases: the coordinator wrote %d PHASE and %d PLAN frames", res.Phases, phases, plans)
	}
	moved := 0
	for _, batches := range links {
		for _, f := range batches {
			n, err := walkBatch(f.payload, nil)
			if err != nil {
				t.Fatal(err)
			}
			moved += n
		}
	}
	if moved == 0 || int64(moved) < res.Nonlocal {
		t.Errorf("%d tasks crossed on member links, %d executed away from home", moved, res.Nonlocal)
	}
	if limit := 1024 + 128*int(res.Phases); bytesSeen > limit {
		t.Errorf("the coordinator's connections carried %d payload bytes over %d phases", bytesSeen, res.Phases)
	}
}

// TestPlanForwards: on the three-member chain a plan that feeds the far
// member does it through the middle one, whose part is a receive and
// then a send — the case a member's plan order exists for.
func TestPlanForwards(t *testing.T) {
	ops := make([][]planOp, 3)
	if err := planOps(mirrorFor("mesh", 3), []int{9, 0, 0}, ops); err != nil {
		t.Fatal(err)
	}
	want := [][]planOp{
		{{Peer: 1, Count: 6}},
		{{Recv: true, Peer: 0, Count: 6}, {Peer: 2, Count: 3}},
		{{Recv: true, Peer: 1, Count: 3}},
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("plan of loads 9,0,0 dealt out as %+v, want %+v", ops, want)
	}
	if err := planOps(mirrorFor("mesh", 3), []int{1, 1, 1}, ops); err != nil || len(ops[0])+len(ops[1])+len(ops[2]) != 0 {
		t.Errorf("balanced loads planned as %+v, %v", ops, err)
	}
}

// TestClusterForwardingChain runs the two jobs whose work starts on one
// member across three: the third member can only be fed through the
// second, so both hops of the chain must have carried batches, and the
// answers are the sequential ones task for task.
func TestClusterForwardingChain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node protocol run")
	}
	for _, job := range []struct {
		app  string
		size int
	}{{"nq", 12}, {"ida", 1}} {
		tap := &tapTransport{Transport: NewMemTransport()}
		nodes := startCluster(t, tap, 3, nil)
		a, err := rips.LookupApp(job.app, job.size)
		if err != nil {
			t.Fatal(err)
		}
		prof := rips.Measure(a)
		res, err := nodes[1].Submit(context.Background(), clusterSpec(job.app, job.size))
		if err != nil {
			t.Fatalf("%s %d: %v", job.app, job.size, err)
		}
		if res.Canceled || res.Generated != res.Executed || res.Executed != int64(prof.Tasks) ||
			res.AppResult != prof.Result || res.VirtualWork != prof.Work {
			t.Errorf("%s %d on three nodes: %+v, want the sequential %+v", job.app, job.size, res, prof)
		}
		members := nodes[0].Members()
		_, links := tap.census(t)
		for _, hop := range []string{"0→" + members[1], "1→" + members[2]} {
			if len(links[hop]) == 0 {
				t.Errorf("%s %d: no batch on the link %s; links used: %v", job.app, job.size, hop, keys(links))
			}
		}
		for _, n := range nodes {
			_ = n.Close()
		}
	}
}

func keys(m map[string][]frame) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestMemberHoldsEarlyBatchesInOrder: two batches reach member 1 before
// the PLAN that announces them — the second waits on the link behind the
// first — and a third after it; the member installs them in plan order,
// holds each to its planned count and resumes by itself.
func TestMemberHoldsEarlyBatchesInOrder(t *testing.T) {
	m, coord, ended := scriptedMember(t, "nq", 6, 1)
	expect(t, coord, fAttachOK)
	a, _ := rips.LookupApp("nq", 6)
	link := partnerLink(t, m, 0)
	say(t, link, fBatch, rootBatch(t, a, 1, 2))
	sent := make(chan error, 1)
	go func() { sent <- link.send(fBatch, rootBatch(t, a, 1, 3)) }() // blocks until the first is taken
	plan(t, coord, planOp{Recv: true, Peer: 0, Count: 2}, planOp{Recv: true, Peer: 0, Count: 3}, planOp{Recv: true, Peer: 0, Count: 1})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	say(t, link, fBatch, rootBatch(t, a, 1, 1))
	expect(t, coord, fDrained) // six subtrees later
	say(t, coord, fFinish, encodeJob(7))
	cm, err := decodeCounters(expect(t, coord, fCounters).payload)
	if prof := app.Measure(a); err != nil || cm.Executed != 6*int64(prof.Tasks) || cm.Nonlocal != 6 || cm.AppResult != 6*prof.Result {
		t.Errorf("counters %+v, %v; want six 6-Queens subtrees", cm, err)
	}
	ended()
}

// TestMemberRefusesMiscountedBatch: a batch that is not the size the
// plan says ends the job with the member's complaint — sent to the
// coordinator, and the session kept open until the coordinator has
// answered it — and leaves nothing behind.
func TestMemberRefusesMiscountedBatch(t *testing.T) {
	m, coord, ended := scriptedMember(t, "nq", 6, 1)
	expect(t, coord, fAttachOK)
	a, _ := rips.LookupApp("nq", 6)
	say(t, partnerLink(t, m, 0), fBatch, rootBatch(t, a, 1, 2))
	plan(t, coord, planOp{Recv: true, Peer: 0, Count: 3})
	msg, err := decodeError(expect(t, coord, fError).payload)
	if err != nil || !strings.Contains(msg, "batch of 2 tasks, the plan says 3") {
		t.Fatalf("the member complained %q, %v", msg, err)
	}
	say(t, coord, fCancel, cancelMsg{Job: 7, Reason: "test"}.encode())
	ended()
}

// TestMemberErrorIsNotALostNode: a member that answers with an ERROR —
// here its node does not know the job's app — is alive and talking, and
// the submitter is told what it said, not that the node was lost.
func TestMemberErrorIsNotALostNode(t *testing.T) {
	tr := NewMemTransport()
	known := func(name string, size int) (app.App, error) { return rips.LookupApp(name, size) }
	nodes := startCluster(t, tr, 1, func(o *Options) { o.Resolver = known })
	stranger, err := Start(func() Options {
		o := testOpts(tr, "mem://stranger")
		o.Resolver = func(name string, size int) (app.App, error) {
			return nil, errors.New("no app " + name + " here")
		}
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = stranger.Close() })
	if err := stranger.Join(nodes[0].Addr()); err != nil {
		t.Fatal(err)
	}
	res, err := nodes[0].coordinate(context.Background(), clusterSpec("nq", 8))
	var lost *NodeLostError
	if err == nil || errors.As(err, &lost) || !res.Canceled {
		t.Fatalf("want the member's own error and a canceled result, got %+v, %v", res, err)
	}
	if want := "cluster: member mem://stranger: no app nq here"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}

// TestPlannerRejectionIsReported: a planner that rejects the loads ends
// the job with the planner's error and the loads it was given, not with
// a bare "job abandoned".
func TestPlannerRejectionIsReported(t *testing.T) {
	n := startCluster(t, NewMemTransport(), 1, nil)[0]
	a, _ := rips.LookupApp("nq", 8)
	// A mirror one node short of the membership: the inconsistency the
	// rejection exists to catch.
	c := newCoordRun(n, 7, []string{"mem://m0", "mem://m1", "mem://m2"}, a, topo.NewMesh(1, 2))
	c.loads = []int{5, 0, 0}
	err := c.plan()
	if err == nil || !strings.Contains(err.Error(), "planner rejected loads [5 0 0]") {
		t.Fatalf("plan over a short mirror: %v", err)
	}
	res, aerr := c.abandon(context.Background(), err)
	if aerr != err || !res.Canceled {
		t.Errorf("abandon turned %v into %v (result %+v)", err, aerr, res)
	}
}

// batchTrap is a transport whose connections call trip, once, with the
// address a BATCH frame is about to be written to — after the plan that
// orders it has been written, before a byte of it has landed.
type batchTrap struct {
	Transport
	once sync.Once
	trip func(to string)
}

type trapConn struct {
	net.Conn
	t  *batchTrap
	to string
}

func (t *batchTrap) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := t.Transport.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &trapConn{Conn: conn, t: t, to: addr}, nil
}

// Write sees every frame's header at the start of a write: writeFrame
// never splits one.
func (c *trapConn) Write(p []byte) (int, error) {
	if len(p) >= headerSize && [4]byte(p[:4]) == wireMagic && frameType(p[5]) == fBatch {
		c.t.once.Do(func() { c.t.trip(c.to) })
	}
	return c.Conn.Write(p)
}

// jobGoroutines returns the stacks of the goroutines that belong to a
// cluster job: sessions, coordinators, engine workers, and the readers
// and heartbeats of their peers and links.
func jobGoroutines() []string {
	buf := make([]byte, 1<<20)
	var mine []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, mark := range []string{"cluster.(*peer).", "cluster.(*memberRun).", "cluster.(*coordRun).", "Session(", "par.(*engineRun)."} {
			if strings.Contains(g, mark) {
				mine = append(mine, g)
				break
			}
		}
	}
	return mine
}

// TestReceiverDiesAfterPlan kills the node of the receiving member after
// the PLAN that makes it one has been written and before the batch has
// landed — the moment the sender starts writing it. Submit returns the
// typed error well inside the heartbeat timeout, and nothing of the job
// survives on either node: no session, no coordinator, no engine worker,
// no reader or heartbeat of a peer or link.
func TestReceiverDiesAfterPlan(t *testing.T) {
	var nodes []*Node
	tripped := make(chan string, 1)
	trap := &batchTrap{Transport: NewMemTransport(), trip: func(to string) {
		for _, n := range nodes {
			if n.Addr() == to {
				_ = n.Close()
			}
		}
		tripped <- to
	}}
	nodes = startCluster(t, trap, 2, nil)
	// 12-Queens is rooted on member 0, so the first batch goes to member
	// 1: submit on the other node, which outlives the job.
	members := nodes[0].Members()
	survivor := nodes[0]
	if survivor.Addr() == members[1] {
		survivor = nodes[1]
	}
	start := time.Now()
	res, err := survivor.Submit(context.Background(), clusterSpec("nq", 12))
	took := time.Since(start)
	var lost *NodeLostError
	if !errors.As(err, &lost) || !res.Canceled {
		t.Fatalf("want *NodeLostError and a canceled result, got %+v, %v", res, err)
	}
	select {
	case to := <-tripped:
		if to != members[1] {
			t.Fatalf("the first batch went to %s, member 1 is %s", to, members[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the job ended with no batch sent")
	}
	if took > survivor.opts.HeartbeatTimeout {
		t.Errorf("the typed error took %v, the heartbeat timeout is %v", took, survivor.opts.HeartbeatTimeout)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		left := jobGoroutines()
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of the job survive it:\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}
