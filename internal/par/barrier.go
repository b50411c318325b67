package par

import "sync"

// epochBarrier is a reusable phase-indexed barrier for a fixed party
// count. Each await call belongs to one epoch; the last worker to
// arrive becomes that epoch's leader and runs the stop-the-world
// callback while every other worker is parked inside the barrier —
// which is exactly the system-phase window of the paper's protocol.
// The mutex hand-off gives the leader a happens-before edge over every
// worker's pre-barrier writes (their deques are safely readable) and
// publishes the leader's redistribution to every worker on release.
//
// The epoch index doubles as the user-phase index: worker code reads
// it once per await and tags its ANY-policy transfer requests with it,
// mirroring the phase-indexed init broadcasts of the simulator runtime
// (redundant initiators of the same epoch cancel).
type epochBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	epoch   int64
}

func newEpochBarrier(parties int) *epochBarrier {
	b := &epochBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all parties have arrived. The last arrival runs
// leader (with the world stopped), then releases the epoch. It returns
// the index of the epoch that was completed.
func (b *epochBarrier) await(leader func()) int64 {
	b.mu.Lock() //ripslint:allow hotpath the epoch barrier IS the sanctioned blocking point of the phase protocol
	e := b.epoch
	b.arrived++
	if b.arrived == b.parties {
		leader() //ripslint:allow hotpath the leader callback (beginPhase) is a hot-path root of its own
		b.arrived = 0
		b.epoch++
		b.cond.Broadcast()
		b.mu.Unlock()
		return e
	}
	for b.epoch == e {
		b.cond.Wait() //ripslint:allow hotpath parking until the epoch completes is the barrier's purpose
	}
	b.mu.Unlock()
	return e
}
