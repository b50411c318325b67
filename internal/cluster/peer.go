//ripslint:allow-file wallclock per-frame I/O deadlines and heartbeat pacing are wall-clock by design; they detect dead peers and never influence which tasks run where
package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// frame is one decoded wire frame.
type frame struct {
	t       frameType
	payload []byte
}

// peer wraps a connection in the failure discipline every long-lived
// cluster conversation uses: a reader goroutine that enforces a
// per-frame deadline, a heartbeat goroutine that keeps the other
// side's deadline fed, and a write lock so heartbeats interleave
// cleanly with protocol frames. When the conn dies — error, EOF, or a
// deadline expiring with no heartbeat — the reader records the reason
// and closes done, and every pending recv unblocks.
type peer struct {
	conn     net.Conn
	interval time.Duration // heartbeat send period
	timeout  time.Duration // per-frame read deadline
	// hook, when non-nil, is shown every frame on the reader goroutine
	// before the frame is queued, and a frame of type fInvalid when the
	// conn dies (p.err says why). This is how a frame gets where it is
	// going in one wake-up: a member's engine, which looks at no channel
	// between tasks, learns of a PHASE, a CANCEL or a lost coordinator; the
	// coordinator's merged event stream and a member's batch slots are fed
	// by the readers themselves, with no goroutine in between.
	hook func(p *peer, f frame)

	wmu sync.Mutex

	// inbox queues the frames for recv. It is nil on a peer whose hook is
	// where every frame goes (startPeer): nothing is queued there, and
	// recv reports only the conn's death.
	inbox     chan frame
	done      chan struct{} // closed by the reader on conn death
	err       error         // why, set before done closes
	once      sync.Once
	closed    chan struct{} // closed by close()
	closeOnce sync.Once
}

// newPeer starts a peer whose frames are read through recv; hook, when
// non-nil, sees each one first.
func newPeer(conn net.Conn, interval, timeout time.Duration, hook func(*peer, frame)) *peer {
	return startPeer(conn, interval, timeout, hook, make(chan frame, 64))
}

// startPeer starts a peer that queues its frames in inbox, or, when inbox
// is nil, leaves every one to hook.
func startPeer(conn net.Conn, interval, timeout time.Duration, hook func(*peer, frame), inbox chan frame) *peer {
	p := &peer{
		conn:     conn,
		interval: interval,
		timeout:  timeout,
		hook:     hook,
		inbox:    inbox,
		done:     make(chan struct{}),
		closed:   make(chan struct{}),
	}
	go p.read()
	go p.heartbeat()
	return p
}

// read pumps frames into the inbox, filtering heartbeats, until the
// conn dies. A read deadline of one heartbeat timeout is re-armed
// before every frame: a healthy peer's heartbeats always beat it, so
// its expiry means the peer is gone.
func (p *peer) read() {
	for {
		if err := p.conn.SetReadDeadline(time.Now().Add(p.timeout)); err != nil {
			p.fail(err)
			return
		}
		t, payload, err := readFrame(p.conn)
		if err != nil {
			p.fail(err)
			return
		}
		if t == fHeartbeat {
			continue
		}
		if t == fInvalid {
			// Type 0 is how a hook is told of the conn's death; on the wire
			// it is nobody's frame.
			p.fail(errors.New("cluster: peer sent a frame of type 0"))
			return
		}
		if p.hook != nil {
			p.hook(p, frame{t, payload})
		}
		if p.inbox == nil {
			continue
		}
		select {
		case p.inbox <- frame{t, payload}:
		case <-p.closed:
			return
		}
	}
}

// heartbeat keeps the other side's read deadline fed while this side
// has nothing to say.
func (p *peer) heartbeat() {
	tick := time.NewTicker(p.interval) //ripslint:allow sleep heartbeat pacing is the liveness protocol itself; it carries no work and shapes no schedule
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			// A send failure needs no handling here: the peer's reader
			// hits the same dead conn and records the reason.
			_ = p.send(fHeartbeat, nil)
		case <-p.closed:
			return
		case <-p.done:
			return
		}
	}
}

func (p *peer) fail(err error) {
	p.once.Do(func() {
		p.err = err
		close(p.done)
		if p.hook != nil {
			p.hook(p, frame{})
		}
	})
}

// send writes one frame under the write lock with a write deadline.
func (p *peer) send(t frameType, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if err := p.conn.SetWriteDeadline(time.Now().Add(p.timeout)); err != nil {
		return err
	}
	return writeFrame(p.conn, t, payload)
}

// recv returns the next non-heartbeat frame. Frames already received
// before the conn died still drain in order; after that, recv reports
// why the conn died. Context cancellation wins over waiting.
func (p *peer) recv(ctx context.Context) (frame, error) {
	select {
	case f := <-p.inbox:
		return f, nil
	default:
	}
	select {
	case f := <-p.inbox:
		return f, nil
	case <-p.done:
		// Drain anything the reader enqueued before dying.
		select {
		case f := <-p.inbox:
			return f, nil
		default:
		}
		return frame{}, p.err
	case <-ctx.Done():
		return frame{}, ctx.Err()
	}
}

// close tears the peer down. Safe to call any number of times.
func (p *peer) close() {
	p.once.Do(func() {
		p.err = net.ErrClosed
		close(p.done)
	})
	p.closeOnce.Do(func() { close(p.closed) })
	_ = p.conn.Close()
}
