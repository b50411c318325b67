//ripslint:allow-file wallclock membership probing, dial timeouts and job wall-time measurement are real time by design; scheduling decisions inside a job depend only on reported task counts
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rips"
	"rips/internal/app"
)

// Options configures a cluster node. The zero value of every field is
// usable: TCP transport, the public rips app registry as the resolver,
// and production heartbeat/stabilization timings.
type Options struct {
	// Addr is the listen address. A TCP ":0" port is resolved after
	// binding and the resolved address becomes the node's identity on
	// the ring.
	Addr string
	// Transport carries the wire protocol; nil means TCP.
	Transport Transport
	// Resolver builds the app a job names; nil means rips.LookupApp.
	// The difftest cluster leg injects a resolver over its cached
	// apps.
	Resolver func(name string, size int) (app.App, error)
	// HeartbeatInterval is how often idle connections emit heartbeats;
	// HeartbeatTimeout is the per-frame read deadline, after which a
	// silent peer is declared dead. Defaults: 250ms and 2s.
	HeartbeatInterval, HeartbeatTimeout time.Duration
	// StabilizeInterval paces the membership probe loop; default 1s.
	StabilizeInterval time.Duration
	// DialTimeout bounds connection attempts; default 2s.
	DialTimeout time.Duration
	// FailureLimit is how many consecutive failed stabilization rounds
	// remove a member; default 2.
	FailureLimit int
}

func (o *Options) setDefaults() {
	if o.Transport == nil {
		o.Transport = TCP()
	}
	if o.Resolver == nil {
		o.Resolver = rips.LookupApp
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 2 * time.Second
	}
	if o.StabilizeInterval <= 0 {
		o.StabilizeInterval = time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.FailureLimit <= 0 {
		o.FailureLimit = 2
	}
}

// Node is one cluster process: a listener speaking rips-wire/v1, a
// membership ring, and the ability to coordinate or serve any job the
// ring routes to it.
type Node struct {
	opts   Options
	addr   string
	ln     net.Listener
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	members map[string]bool
	suspect map[string]bool // removed members, barred from gossip re-entry
	fails   map[string]int  // consecutive probe failures
	conns   map[net.Conn]struct{}
	runs    map[string]*memberRun // live member sessions by job key, for inbound member links
	jobs    int
	closed  bool

	jobSeq atomic.Uint64
}

// Start binds the address and brings the node up as a single-member
// cluster. Call Join to merge it into an existing one.
func Start(opts Options) (*Node, error) {
	opts.setDefaults()
	ln, err := opts.Transport.Listen(opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", opts.Addr, err)
	}
	addr := opts.Addr
	if a := ln.Addr().String(); addr == "" || hasZeroPort(addr) {
		addr = a
	}
	ctx, cancel := context.WithCancel(context.Background()) //ripslint:allow ctxflow the node IS a lifecycle root: this context parents every session and is canceled by Close
	n := &Node{
		opts:    opts,
		addr:    addr,
		ln:      ln,
		ctx:     ctx,
		cancel:  cancel,
		members: map[string]bool{addr: true},
		suspect: map[string]bool{},
		fails:   map[string]int{},
		conns:   map[net.Conn]struct{}{},
		runs:    map[string]*memberRun{},
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.stabilizeLoop()
	return n, nil
}

func hasZeroPort(addr string) bool {
	_, port, err := net.SplitHostPort(addr)
	return err == nil && port == "0"
}

// Addr is the node's ring identity.
func (n *Node) Addr() string { return n.addr }

// Close tears the node down abruptly: the listener and every live
// connection close, in-flight jobs on other nodes observe the death
// through their heartbeats. It does not announce departure — the ring
// discovers it, exactly as it would a crash.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	n.cancel()
	err := n.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}

// Members returns the ring-ordered membership snapshot (self
// included). The order doubles as job member indexing.
func (n *Node) Members() []string {
	n.mu.Lock()
	addrs := make([]string, 0, len(n.members))
	for a := range n.members {
		addrs = append(addrs, a)
	}
	n.mu.Unlock()
	ringSort(addrs)
	return addrs
}

// MemberStatus is one ring entry of a Status report.
type MemberStatus struct {
	Addr   string `json:"addr"`
	RingID string `json:"ring_id"`
	Self   bool   `json:"self,omitempty"`
}

// Status is the /v1/cluster document.
type Status struct {
	Addr    string         `json:"addr"`
	Wire    string         `json:"wire"`
	Members []MemberStatus `json:"members"`
	Jobs    int            `json:"jobs"`
}

// Status reports the node's view of the ring.
func (n *Node) Status() Status {
	members := n.Members()
	n.mu.Lock()
	jobs := n.jobs
	n.mu.Unlock()
	st := Status{Addr: n.addr, Wire: WireSchema, Jobs: jobs}
	for _, a := range members {
		st.Members = append(st.Members, MemberStatus{
			Addr:   a,
			RingID: fmt.Sprintf("%016x", ringHash(a)),
			Self:   a == n.addr,
		})
	}
	return st
}

// admit records direct contact with a live node: it (re-)enters the
// membership and sheds any suspicion. Only direct contact — a Join or
// Ping from the node itself — clears a suspect; gossip cannot, which
// is what stops a removed address from bouncing back through a stale
// member list.
func (n *Node) admit(addr string) {
	if addr == "" {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.members[addr] = true
	delete(n.suspect, addr)
	delete(n.fails, addr)
}

// merge folds a gossiped member list in, skipping suspects.
func (n *Node) merge(addrs []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range addrs {
		if a == "" || n.suspect[a] {
			continue
		}
		n.members[a] = true
	}
}

// dropDead removes a member that failed too many consecutive probes.
func (n *Node) dropDead(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.members, addr)
	delete(n.fails, addr)
	n.suspect[addr] = true
}

func (n *Node) addJob(d int) {
	n.mu.Lock()
	n.jobs += d
	n.mu.Unlock()
}

// Join merges this node into the cluster a seed node belongs to: it
// announces itself to the seed, learns the membership, then announces
// itself to every learned member so each clears any suspicion left
// over from a crash of a previous process at this address.
func (n *Node) Join(seed string) error {
	reply, err := n.exchange(seed, fJoin, encodeAddr(n.addr), fMembers)
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seed, err)
	}
	addrs, err := decodeMembers(reply)
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seed, err)
	}
	n.merge(addrs)
	for _, a := range addrs {
		if a == n.addr || a == seed {
			continue
		}
		if more, err := n.exchange(a, fJoin, encodeAddr(n.addr), fMembers); err == nil {
			if got, err := decodeMembers(more); err == nil {
				n.merge(got)
			}
		}
	}
	return nil
}

// exchange performs a one-shot request/reply conversation: dial, send,
// read frames (skipping heartbeats) until the wanted type or an error
// frame arrives.
func (n *Node) exchange(addr string, t frameType, payload []byte, want frameType) ([]byte, error) {
	conn, err := n.opts.Transport.Dial(addr, n.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(n.opts.HeartbeatTimeout)); err != nil {
		return nil, err
	}
	if err := writeFrame(conn, t, payload); err != nil {
		return nil, err
	}
	for {
		rt, rp, err := readFrame(conn)
		if err != nil {
			return nil, err
		}
		switch rt {
		case fHeartbeat:
			continue
		case want:
			return rp, nil
		case fError:
			msg, derr := decodeError(rp)
			if derr != nil {
				return nil, derr
			}
			return nil, errors.New(msg)
		default:
			return nil, fmt.Errorf("cluster: %s replied %v to a %v request", addr, rt, t)
		}
	}
}

// acceptLoop serves inbound connections until the listener closes.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if !n.track(conn) {
			_ = conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) track(conn net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.conns[conn] = struct{}{}
	return true
}

func (n *Node) untrack(conn net.Conn) {
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
}

// serveConn dispatches one inbound connection. Control frames (join,
// ping, echo) are handled in a loop; a submit, attach or link frame
// hands the connection over to a job session and ends the dispatch.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	defer func() { _ = conn.Close() }()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(n.opts.HeartbeatTimeout)); err != nil {
			return
		}
		t, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		switch t {
		case fHeartbeat:
			continue
		case fJoin, fPing:
			addr, err := decodeAddr(payload)
			if err != nil {
				_ = writeFrame(conn, fError, encodeError(err.Error()))
				return
			}
			n.admit(addr)
			if err := writeFrame(conn, fMembers, encodeMembers(n.Members())); err != nil {
				return
			}
		case fEcho:
			if err := writeFrame(conn, fEchoReply, payload); err != nil {
				return
			}
		case fSubmit:
			n.handleSubmit(conn, payload)
			return
		case fAttach:
			n.memberSession(conn, payload)
			return
		case fLink:
			n.linkSession(conn, payload)
			return
		default:
			_ = writeFrame(conn, fError, encodeError(fmt.Sprintf("cluster: unexpected %v frame", t)))
			return
		}
	}
}

// stabilizeLoop is the membership maintenance loop: each round probes
// every known member, with one backed-off reconnect attempt per
// failure — the only place in the protocol that reconnects; job
// connections never do, they fail fast instead.
func (n *Node) stabilizeLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.opts.StabilizeInterval) //ripslint:allow sleep membership probing is paced in real time by design; it never touches a running job's schedule
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			n.stabilize()
		case <-n.ctx.Done():
			return
		}
	}
}

func (n *Node) stabilize() {
	for _, m := range n.Members() {
		if m == n.addr {
			continue
		}
		reply, err := n.exchange(m, fPing, encodeAddr(n.addr), fMembers)
		if err != nil {
			// Reconnect with backoff before declaring the round failed.
			backoff := time.NewTimer(n.opts.StabilizeInterval / 4) //ripslint:allow sleep the stabilization retry backoff is membership plumbing, outside any job's schedule
			select {
			case <-backoff.C:
			case <-n.ctx.Done():
				backoff.Stop()
				return
			}
			reply, err = n.exchange(m, fPing, encodeAddr(n.addr), fMembers)
		}
		if err != nil {
			n.mu.Lock()
			n.fails[m]++
			dead := n.fails[m] >= n.opts.FailureLimit
			n.mu.Unlock()
			if dead {
				n.dropDead(m)
			}
			continue
		}
		n.mu.Lock()
		n.fails[m] = 0
		n.mu.Unlock()
		if addrs, err := decodeMembers(reply); err == nil {
			n.merge(addrs)
		}
	}
}

// Submit runs one job on the cluster: the job document's ring position
// picks the coordinator, and any node accepts the submission — the
// unified job API the HTTP surface forwards into. The call blocks
// until the job finishes, is canceled, or the coordinator is lost.
func (n *Node) Submit(ctx context.Context, spec rips.JobSpec) (Result, error) {
	doc, err := spec.Encode()
	if err != nil {
		return Result{}, err
	}
	coord := successor(n.Members(), ringHash(string(doc)))
	if coord == n.addr {
		return n.coordinate(ctx, spec)
	}
	conn, err := n.opts.Transport.Dial(coord, n.opts.DialTimeout)
	if err != nil {
		return Result{}, fmt.Errorf("cluster: reaching coordinator %s: %w", coord, err)
	}
	p := newPeer(conn, n.opts.HeartbeatInterval, n.opts.HeartbeatTimeout, nil)
	defer p.close()
	if err := p.send(fSubmit, doc); err != nil {
		return Result{}, fmt.Errorf("cluster: reaching coordinator %s: %w", coord, err)
	}
	for {
		f, err := p.recv(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return Result{Canceled: true}, ctx.Err()
			}
			return Result{Canceled: true}, &NodeLostError{Addr: coord}
		}
		switch f.t {
		case fResult:
			m, err := decodeResult(f.payload)
			if err != nil {
				return Result{}, err
			}
			return decodeOutcome(m)
		case fError:
			msg, derr := decodeError(f.payload)
			if derr != nil {
				return Result{}, derr
			}
			return Result{}, errors.New(msg)
		default:
			return Result{}, fmt.Errorf("cluster: coordinator %s sent unexpected %v frame", coord, f.t)
		}
	}
}

// handleSubmit coordinates a job that arrived over the wire, relaying
// the outcome back on the same connection. The submitter's death (its
// conn failing) cancels the job — a forwarding node hanging up must
// not leave the cluster burning cycles on an unanswerable job.
func (n *Node) handleSubmit(conn net.Conn, payload []byte) {
	spec, err := rips.DecodeJobSpec(payload)
	if err != nil {
		_ = writeFrame(conn, fError, encodeError(err.Error()))
		return
	}
	p := newPeer(conn, n.opts.HeartbeatInterval, n.opts.HeartbeatTimeout, nil)
	defer p.close()
	ctx, cancel := context.WithCancel(n.ctx)
	defer cancel()
	go func() {
		for {
			f, err := p.recv(ctx)
			if err != nil || f.t == fCancel {
				cancel()
				return
			}
		}
	}()
	res, rerr := n.coordinate(ctx, spec)
	_ = p.send(fResult, encodeOutcome(res, rerr).encode())
}

// EchoRTT measures round-trip times to a peer with the given payload,
// one persistent connection, reps round trips. The bench harness fits
// its alpha/beta latency model from these.
func (n *Node) EchoRTT(addr string, payload []byte, reps int) ([]time.Duration, error) {
	conn, err := n.opts.Transport.Dial(addr, n.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	defer func() { _ = conn.Close() }()
	rtts := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if err := conn.SetDeadline(time.Now().Add(n.opts.HeartbeatTimeout)); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := writeFrame(conn, fEcho, payload); err != nil {
			return nil, err
		}
		for {
			t, _, err := readFrame(conn)
			if err != nil {
				return nil, err
			}
			if t == fHeartbeat {
				continue
			}
			if t != fEchoReply {
				return nil, fmt.Errorf("cluster: %s replied %v to an echo", addr, t)
			}
			break
		}
		rtts = append(rtts, time.Since(start))
	}
	return rtts, nil
}
