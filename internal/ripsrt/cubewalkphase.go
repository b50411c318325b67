package ripsrt

import (
	"rips/internal/invariant"
	"rips/internal/topo"
)

// cubeWalkSched is the message-passing Cube Walking Algorithm
// (internal/sched/cubewalk): exact within-one balancing on a hypercube
// in O(d^2) communication steps — the upgrade over cubeSched's
// incremental Dimension Exchange, selected with Config.ExactCube.
//
// Per dimension k (highest first): the two halves of each 2^(k+1)
// subcube learn the half surplus via a butterfly sum over the group's
// links, the sending half runs a Hillis-Steele prefix scan of its
// surpluses over its own k-subcube, and each pair then ships the
// MWA-recurrence share across its dimension-k link.
type cubeWalkSched struct {
	cube *topo.Hypercube
	id   int
}

func newCubeWalkSched(h *topo.Hypercube, id int) *cubeWalkSched {
	return &cubeWalkSched{cube: h, id: id}
}

func (cs *cubeWalkSched) phase(st *nodeState) int {
	n := st.n
	d := cs.cube.Dim()
	st.overhead(costPerPhase)
	st.rts.PushAll(st.rte.Drain())
	w := st.rts.Len()
	st.ownTaken = 0

	// Machine-wide total via a full butterfly; every node learns T and
	// derives the quotas.
	total := w
	for k := 0; k < d; k++ {
		p := cs.id ^ (1 << k)
		n.SendTag(p, tagColT, total, 8)
		total += n.RecvFrom(p, tagColT).Data.(int)
	}
	st.phase++
	if total == 0 {
		return 0
	}
	avg, rem := total/n.N(), total%n.N()
	quota := func(id int) int {
		if id < rem {
			return avg + 1
		}
		return avg
	}

	cur := st.rts.Len() + len(st.inbox)
	for k := d - 1; k >= 0; k-- {
		bit := 1 << k
		// My half's surplus sum: butterfly over the k low dimensions
		// (the links internal to my half of the group).
		delta := cur - quota(cs.id)
		halfSum := delta
		for j := 0; j < k; j++ {
			p := cs.id ^ (1 << j)
			n.SendTag(p, tagScanW, halfSum, 8)
			halfSum += n.RecvFrom(p, tagScanW).Data.(int)
		}
		// The partner's half has the opposite surplus (the group as a
		// whole is already on quota), so no cross-half exchange of
		// sums is needed; f > 0 means my half sends.
		f := halfSum
		sending := f > 0
		if f == 0 {
			st.overhead(costPerElem * 4)
			continue
		}
		if sending {
			// The MWA delta/eta/gamma export recurrence has the closed
			// form cum_p = max(0, min(f, maxPrefix_p)), where
			// maxPrefix_p is the running maximum of the inclusive
			// prefix sums of delta over the pairs in rank order. The
			// (sum, max-prefix) pair is an associative aggregate, so a
			// Hillis-Steele doubling scan over the half's contiguous
			// ids yields both the inclusive and exclusive values in k
			// rounds.
			rank := cs.id & (bit - 1)
			own := scanVal{s: delta, m: delta}
			incl := own
			excl := scanIdentity
			for dist := 1; dist < bit; dist <<= 1 {
				if rank+dist < bit {
					n.SendTag(cs.id+dist, tagSpread, incl, 16)
				}
				if rank-dist >= 0 {
					got := n.RecvFrom(cs.id-dist, tagSpread).Data.(scanVal)
					// The received segment lies wholly left of what we
					// have accumulated so far.
					excl = scanCombine(got, excl)
					incl = scanCombine(got, incl)
				}
			}
			x := min(f, max(0, incl.m)) - min(f, max(0, excl.m))
			// A receiver cannot predict whether this is zero, so the
			// sender always ships a (possibly empty) bundle.
			bundle := st.takeTasks(x)
			n.SendTag(cs.id^bit, tagDown, horzMsg{tasks: bundle}, sizeOfTasks(bundle))
			cur -= x
		} else {
			hm := n.RecvFrom(cs.id^bit, tagDown).Data.(horzMsg)
			st.acceptTasks(hm.tasks)
			cur += len(hm.tasks)
		}
		st.overhead(costPerElem * 8)
	}

	// Theorem 1 (exact quota), bookkeeping conservation, and Theorem 2
	// (resident exports bounded by surplus) after the walk.
	got := st.rts.Len() + len(st.inbox)
	invariant.Conserved(got, cur, "ripsrt: cubewalk system phase")
	invariant.BalancedWithinOne(got, total, n.N(), cs.id, "ripsrt: cubewalk system phase")
	invariant.Locality(st.ownTaken, w-quota(cs.id), "ripsrt: cubewalk system phase")
	st.rte.PushAll(st.rts.Drain())
	st.rte.PushAll(st.inbox)
	st.inbox = nil
	return total
}

// scanVal is the prefix-scan aggregate of a contiguous pair segment:
// s is the segment's delta sum, m the maximum inclusive prefix sum
// within the segment.
type scanVal struct {
	s, m int
}

// scanIdentity is the neutral element (empty segment).
var scanIdentity = scanVal{s: 0, m: -1 << 40}

// scanCombine merges a left segment with the segment to its right.
func scanCombine(l, r scanVal) scanVal {
	return scanVal{s: l.s + r.s, m: max(l.m, l.s+r.m)}
}
