package cluster

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rips"
	"rips/internal/app"
	"rips/internal/par"
)

// BenchmarkSystemPhase is the cluster's par.MeasureSystemPhase: what one
// system phase costs two nodes, from the drained member's announcement
// until both members are executing again, with nothing else in the way.
// The members are the real sessions on a real coordinator, but scripted:
// their engines never leave the first exchange, so no task runs, and
// between cycles the script puts the loads back — member 0 holds 2 048
// 8-Queens tasks and spins on its transfer request like a worker between
// tasks, member 1 holds none and announces. Every cycle is therefore the
// same phase: DRAINED, PHASE to member 0, its LOADS, two PLANs, 1 024
// tasks from member 0 straight to member 1. us/phase is the mean of the
// cycles alone, B/phase the heap the whole process allocated per cycle.
func BenchmarkSystemPhase(b *testing.B) {
	b.Run("tcp", func(b *testing.B) { benchSystemPhase(b, TCP(), "127.0.0.1:0") })
	b.Run("mem", func(b *testing.B) { benchSystemPhase(b, NewMemTransport(), "") })
}

// connPair returns the two ends of one connection of the transport.
func connPair(tb testing.TB, tr Transport, addr string) (near, far net.Conn) {
	tb.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	if near, err = tr.Dial(ln.Addr().String(), time.Second); err != nil {
		tb.Fatal(err)
	}
	return near, <-accepted
}

// benchSystemPhase runs b.N cycles over tr. tcpAddr is the listen address
// of everything on TCP; empty means tr names its own.
func benchSystemPhase(b *testing.B, tr Transport, tcpAddr string) {
	const held, moved = 2048, 1024
	listen := func(name string) string {
		if tcpAddr != "" {
			return tcpAddr
		}
		return "mem://" + name
	}
	a, err := rips.LookupApp("nq", 8)
	if err != nil {
		b.Fatal(err)
	}
	var nodes [2]*Node
	var addrs []string
	for i := range nodes {
		if nodes[i], err = Start(Options{Addr: listen(fmt.Sprint("node", i)), Transport: tr}); err != nil {
			b.Fatal(err)
		}
		defer func(n *Node) { _ = n.Close() }(nodes[i])
		addrs = append(addrs, nodes[i].Addr())
	}
	half := appendBatchHeader(nil, 1, 0) // moved copies of the root: what the script refills a member with
	for i := 0; i < moved; i++ {
		if half, err = appendBatchTask(half, a.(app.PayloadCodec), uint64(1000+i), 0, a.Roots(0)[0].Payload()); err != nil {
			b.Fatal(err)
		}
	}
	setBatchCount(half, moved)

	var (
		members  [2]*memberRun
		failed   = make(chan error, 4)  // one slot a script and to spare: a failing script never blocks
		ready    = make(chan struct{})  // member 0 holds its tasks again
		resumed0 = make(chan time.Time) // member 0 is executing again
		elapsed  time.Duration
		spent    uint64
	)
	fail := func(format string, args ...any) bool {
		failed <- fmt.Errorf(format, args...)
		return false
	}
	fill := func(x *par.Stopped, m *memberRun) bool {
		if n, err := installBatch(x, m.codec, half); err != nil || n != moved {
			return fail("refill: %d, %v", n, err)
		}
		return true
	}
	drop := func(uint64, int, any) error { return nil }
	scripts := [2]func(*par.Stopped) bool{
		func(x *par.Stopped) bool { // the holder
			m := members[0]
			if _, err := x.Take(x.Load(), drop); err != nil || !fill(x, m) || !m.exchange(x) { // attach balanced: 1 024 each
				return fail("member 0 did not attach")
			}
			for i := 0; i < b.N; i++ {
				if !fill(x, m) {
					return false
				}
				ready <- struct{}{}
				// A worker between tasks: it looks at the request word and
				// yields its processor once a time slice, as the engine's does.
				for slice := time.Now(); !x.TransferPending(); {
					if time.Since(slice) > 100*time.Microsecond {
						runtime.Gosched()
						slice = time.Now()
					}
				}
				if !m.exchange(x) || x.Load() != held-moved {
					return fail("member 0, cycle %d: load %d after the phase", i, x.Load())
				}
				resumed0 <- time.Now()
			}
			return false
		},
		func(x *par.Stopped) bool { // the drained one
			m := members[1]
			if !fill(x, m) || !m.exchange(x) {
				return fail("member 1 did not attach")
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				if _, err := x.Take(x.Load(), drop); err != nil {
					return fail("member 1: %v", err)
				}
				<-ready
				start := time.Now()
				if !m.exchange(x) || x.Load() != moved {
					return fail("member 1, cycle %d: load %d after the phase", i, x.Load())
				}
				end := time.Now()
				if t := <-resumed0; t.After(end) {
					end = t
				}
				elapsed += end.Sub(start)
			}
			runtime.ReadMemStats(&after)
			spent = after.TotalAlloc - before.TotalAlloc
			return false
		},
	}

	c := newCoordRun(nodes[0], 1, addrs, a, mirrorFor("mesh", 2))
	defer c.closeAll()
	var sessions sync.WaitGroup
	for i := range members {
		m, err := nodes[i].newMember(attachMsg{Job: 1, App: "nq", Size: 8, K: 2, Member: i, Key: "bench/1", Members: addrs}.encode())
		if err != nil {
			b.Fatal(err)
		}
		if m.run, err = par.NewMemberRun(a, 1, par.Member{Index: i, Width: 2, Exchange: scripts[i]}); err != nil {
			b.Fatal(err)
		}
		members[i] = m
		near, far := connPair(b, tr, listen("coordinator"))
		c.join(i, near)
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			m.serve(far)
		}()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.collect(ctx, fAttachOK); err != nil {
		b.Fatal(err)
	}
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		_, _ = c.drive(ctx) // ends with the sessions: a member it loses, or the cancel below
	}()
	over := make(chan struct{})
	go func() {
		sessions.Wait()
		close(over)
	}()
	select {
	case <-over:
	case err := <-failed:
		b.Fatal(err)
	}
	cancel()
	<-driven
	b.ReportMetric(float64(elapsed.Microseconds())/float64(b.N), "us/phase")
	b.ReportMetric(float64(spent)/float64(b.N), "B/phase")
}
