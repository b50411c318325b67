// Package gromos is the synthetic stand-in for the paper's third test
// application: the GROMOS molecular dynamics program running the
// bovine superoxide dismutase (SOD) molecule — 6968 atoms with cutoff
// radii of 8, 12 and 16 Angstrom. GROMOS and the SOD coordinates are
// not redistributable, so this surrogate reproduces the load-balancing
// relevant structure instead (see DESIGN.md):
//
//   - a fixed, input-determined number of processes (the paper reports
//     4986 tasks for every cutoff) — the task set is static;
//   - nonuniform computation density: per-task work is the real count
//     of atom pairs within the cutoff radius, computed over a clustered
//     synthetic molecule, so tasks covering dense regions cost several
//     times the sparse ones;
//   - work that grows roughly with the cube of the cutoff radius,
//     matching the paper's 8 A : 12 A : 16 A execution-time ratios.
//
// All geometry is deterministic (seeded); the pair counting is real
// computation over cell lists, not a sampled distribution.
package gromos

import (
	"fmt"
	"math"
	"math/rand"

	"rips/internal/app"
	"rips/internal/invariant"
	"rips/internal/sim"
)

// Molecule geometry constants: 6968 atoms (the SOD atom count) grouped
// into 4986 charge groups (the paper's task count).
const (
	NumAtoms  = 6968
	NumGroups = 4986
)

// Cost model: CostPerPair folds the per-pair force evaluation over the
// simulated trajectory segment into one task execution; CostPerAtom
// covers integration and bonded terms. Calibrated so the 8 A cutoff
// lands near the paper's sequential workload (~55-60 s).
const (
	CostPerPair = 55 * sim.Microsecond
	CostPerAtom = 400 * sim.Microsecond
)

// vec3 is a position in Angstrom.
type vec3 struct{ x, y, z float64 }

// App is the molecular-dynamics surrogate for one cutoff radius.
type App struct {
	name    string
	cutoff  float64
	pos     []vec3
	groups  [][2]int32 // [start, end) atom ranges per task
	cells   map[[3]int32][]int32
	cellSz  float64
	boxSize float64
}

// New builds the surrogate molecule and neighbor structure for the
// given cutoff radius in Angstrom.
func New(cutoff float64) *App {
	if cutoff <= 0 {
		invariant.Violated("gromos: cutoff %v out of range", cutoff)
	}
	a := &App{
		name:    fmt.Sprintf("gromos %gA", cutoff),
		cutoff:  cutoff,
		boxSize: 64,
		cellSz:  cutoff,
	}
	a.generate(1995) // fixed seed: the "input file"
	a.buildCells()
	a.buildGroups()
	return a
}

// Configs returns the paper's three cutoff configurations.
func Configs() []*App { return []*App{New(8), New(12), New(16)} }

// generate places atoms in clustered blobs (protein domains) plus a
// sparse solvent background, producing the nonuniform density the
// paper's load imbalance comes from.
func (a *App) generate(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const blobs = 24
	centers := make([]vec3, blobs)
	for i := range centers {
		centers[i] = vec3{
			x: 8 + rng.Float64()*(a.boxSize-16),
			y: 8 + rng.Float64()*(a.boxSize-16),
			z: 8 + rng.Float64()*(a.boxSize-16),
		}
	}
	a.pos = make([]vec3, NumAtoms)
	for i := range a.pos {
		if i%8 == 7 { // solvent background, uniform
			a.pos[i] = vec3{rng.Float64() * a.boxSize, rng.Float64() * a.boxSize, rng.Float64() * a.boxSize}
			continue
		}
		c := centers[(i/64)%blobs] // consecutive atoms share a blob
		sigma := 4.5
		a.pos[i] = vec3{
			x: clamp(c.x+rng.NormFloat64()*sigma, 0, a.boxSize),
			y: clamp(c.y+rng.NormFloat64()*sigma, 0, a.boxSize),
			z: clamp(c.z+rng.NormFloat64()*sigma, 0, a.boxSize),
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// buildCells bins atoms into cutoff-sized cells for O(1) neighbor
// lookups.
func (a *App) buildCells() {
	a.cells = make(map[[3]int32][]int32)
	for i, p := range a.pos {
		k := a.cellOf(p)
		a.cells[k] = append(a.cells[k], int32(i))
	}
}

func (a *App) cellOf(p vec3) [3]int32 {
	return [3]int32{int32(p.x / a.cellSz), int32(p.y / a.cellSz), int32(p.z / a.cellSz)}
}

// buildGroups partitions atoms into NumGroups contiguous charge
// groups; contiguity keeps each group spatially coherent (atoms were
// generated blob by blob), which is what skews per-task cost.
func (a *App) buildGroups() {
	a.groups = make([][2]int32, NumGroups)
	base := NumAtoms / NumGroups
	rem := NumAtoms % NumGroups
	start := int32(0)
	for g := range a.groups {
		size := int32(base)
		if g < rem {
			size++
		}
		a.groups[g] = [2]int32{start, start + size}
		start += size
	}
	if start != NumAtoms {
		invariant.Violated("gromos: group partition does not cover all atoms")
	}
}

// neighbors counts atoms within the cutoff of atom i (excluding i).
func (a *App) neighbors(i int32) int {
	p := a.pos[i]
	k := a.cellOf(p)
	r2 := a.cutoff * a.cutoff
	count := 0
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				for _, j := range a.cells[[3]int32{k[0] + dx, k[1] + dy, k[2] + dz}] {
					if j == i {
						continue
					}
					q := a.pos[j]
					d := (p.x-q.x)*(p.x-q.x) + (p.y-q.y)*(p.y-q.y) + (p.z-q.z)*(p.z-q.z)
					if d <= r2 {
						count++
					}
				}
			}
		}
	}
	return count
}

// Name returns e.g. "gromos 16A".
func (a *App) Name() string { return a.name }

// Rounds is 1: the task set is static.
func (a *App) Rounds() int { return 1 }

// BlockDistributed reports true: like the real GROMOS, the charge
// groups start block-distributed across the processors (the static
// SPMD decomposition); the load balancer only has to correct the
// density imbalance, which is why the paper's Table I shows only ~10%
// of GROMOS tasks moving under RID and RIPS.
func (a *App) BlockDistributed() bool { return true }

// pack puts a charge-group index in the first inline payload word.
func pack(g int32) app.Words { return app.Words{A: uint64(uint32(g))} }

func unpack(w *app.Words) int32 { return int32(w.A) }

// Roots returns all charge-group tasks.
func (a *App) Roots(round int) []app.Spawn {
	out := make([]app.Spawn, NumGroups)
	for g := range out {
		out[g] = app.Spawn{W: pack(int32(g)), Size: 24}
	}
	return out
}

// Execute computes the nonbonded interaction load of one charge group:
// the real pair count of its atoms within the cutoff radius.
//
// Execute is real-execution safe: after New returns, pos, groups and
// cells are never written again, so the cell-list lookups below are
// concurrent reads of frozen data — any number of workers may execute
// charge groups of one shared instance in parallel.
func (a *App) Execute(data any, emit func(app.Spawn)) sim.Time {
	w, _ := a.ExecuteCount(data, emit)
	return w
}

// ExecuteCount is Execute reporting also the group's neighbor count
// (app.Counted): the number of in-cutoff pairs its atoms participate
// in, the real quantity the cost model is priced on. The aggregate
// over a run must equal TotalPairs however tasks were placed — a
// direct proof that every charge group was executed exactly once.
func (a *App) ExecuteCount(data any, emit func(app.Spawn)) (sim.Time, int64) {
	g := a.groups[unpack(data.(*app.Words))]
	w := sim.Time(0)
	pairs := int64(0)
	for i := g[0]; i < g[1]; i++ {
		n := a.neighbors(i)
		pairs += int64(n)
		w += CostPerAtom + sim.Time(n)*CostPerPair
	}
	return w, pairs
}

// TotalPairs returns the summed per-atom neighbor count (pairs counted
// from both ends), used by tests and calibration reports.
func (a *App) TotalPairs() int {
	total := 0
	for i := int32(0); i < NumAtoms; i++ {
		total += a.neighbors(i)
	}
	return total
}

// DensitySkew returns max/mean per-group work, a measure of the load
// nonuniformity the scheduler must correct.
func (a *App) DensitySkew() float64 {
	var max, sum float64
	for g := range a.groups {
		task := pack(int32(g))
		w := float64(a.Execute(&task, nil))
		sum += w
		if w > max {
			max = w
		}
	}
	mean := sum / float64(len(a.groups))
	if mean == 0 {
		return math.Inf(1)
	}
	return max / mean
}
