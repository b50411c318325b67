package par

import (
	"rips/internal/affinity"
	"rips/internal/topo"
)

// Affinity hooks — variables so tests can inject synthetic multi-domain
// machines and pinning failures without a real NUMA topology. Production
// code never reassigns them.
var (
	affinityDomains = affinity.Domains
	affinityPin     = affinity.Pin
)

// resolveDomains turns a configured domain count into the effective
// one. Zero auto-detects the machine's affinity domains; any count is
// clamped into [1, workers]; on hypercube machines it is additionally
// rounded down to a power of two, because the domain-level planner is
// the hypercube walking algorithm. Resolution is total and
// deterministic for a given machine — there is no error case.
func resolveDomains(requested, workers int, hypercube bool) int {
	nd := requested
	if nd <= 0 {
		nd = len(affinityDomains())
	}
	if nd > workers {
		nd = workers
	}
	if nd < 1 {
		nd = 1
	}
	if hypercube {
		p := 1
		for p*2 <= nd {
			p *= 2
		}
		nd = p
	}
	return nd
}

// domainBlocks partitions workers 0..n-1 into nd contiguous near-even
// blocks [lo, hi), the first n mod nd blocks one worker wider. Workers
// of a block are consecutive so a block maps onto consecutive CPUs of
// one affinity domain.
func domainBlocks(workers, nd int) [][2]int {
	blocks := make([][2]int, nd)
	lo := 0
	for d := range blocks {
		size := workers / nd
		if d < workers%nd {
			size++
		}
		blocks[d] = [2]int{lo, lo + size}
		lo += size
	}
	return blocks
}

// workerDomains inverts domainBlocks into a worker → domain index map.
func workerDomains(blocks [][2]int, workers int) []int {
	domOf := make([]int, workers)
	for d, b := range blocks {
		for i := b[0]; i < b[1]; i++ {
			domOf[i] = d
		}
	}
	return domOf
}

// MirrorTopology returns the nd-node topology of the machine's own
// family that a coordinator plans over when the machine's nodes are
// groups (affinity domains in-process, whole processes in a cluster)
// rather than single workers: the same walking algorithm balances
// across groups that a pure-RIPS run uses across nodes — and the edges
// inside a group, which stealing handles instead, simply do not exist
// in the virtual machine the planner sees.
func MirrorTopology(machine topo.Topology, nd int) topo.Topology {
	switch machine.(type) {
	case *topo.Tree:
		return topo.NewTree(nd)
	case *topo.Hypercube:
		dim := 0
		for 1<<(dim+1) <= nd {
			dim++
		}
		return topo.NewHypercube(dim)
	default:
		// A 1 x nd mesh (a chain) is valid for ANY domain count, where
		// the paper's squarish machine shapes are not; the mesh walking
		// algorithm balances a chain with its column phase alone.
		return topo.NewMesh(1, nd)
	}
}

// domainCPUs assigns each of the nd hybrid domains the CPU set of one
// affinity domain, spreading hybrid domains across the machine's nodes
// (several hybrid domains share a node when nd exceeds the node
// count). On machines with a single visible node it returns nil:
// pinning every worker to the whole machine would be a no-op
// constraint, so the workers run unpinned. So do the workers of a
// single domain, which is the whole machine whatever its nodes (every
// Steal run; Hybrid with Domains 1).
func domainCPUs(nd int) [][]int {
	aff := affinityDomains()
	if len(aff) < 2 || nd < 2 {
		return nil
	}
	out := make([][]int, nd)
	for d := range out {
		out[d] = aff[d*len(aff)/nd].CPUs
	}
	return out
}
