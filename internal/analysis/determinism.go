package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the reproducibility contract of the simulated
// runtime: a run must be a pure function of its configuration and
// seed, or the paper's Table I/III numbers stop being reproducible.
//
// Checks:
//
//   - wallclock: calls into package time that read the wall clock
//     (time.Now, time.Since, time.Until). The simulator has its own
//     virtual clock (sim.Time); wall-clock reads leak host timing into
//     results. Benchmarks that genuinely measure host time annotate
//     the call with //ripslint:allow wallclock.
//   - sleep: calls into package time that inject host-timed delays or
//     events (time.Sleep, timers, tickers). Injected delays shape the
//     real schedule, which is one step worse than reading the clock,
//     so inside the scheduling core they are never covered by a
//     file-scope waiver: each one justifies itself with a line
//     directive, and schedule-perturbation code lives behind the
//     ripsperturb build tag instead (see internal/par/perturb.go).
//     A call whose duration is computed rather than constant — an
//     adaptive wait like the par backend's EWMA-scaled detector
//     interval — is flagged with its own wording, because a computed
//     delay can feed measured state back into the schedule; the waiver
//     policy is exactly the same (a per-line directive naming the
//     sleep check), the diagnostic just makes the feedback loop
//     something the author visibly signed off on.
//   - rand: package-level math/rand functions, which draw from the
//     process-global, unseeded (Go ≥1.20: randomly seeded) source.
//     Deterministic code must thread a seeded *rand.Rand (rand.New,
//     rand.NewSource and math/rand/v2's NewPCG and NewChaCha8 are
//     allowed for exactly that purpose; the simulator provides
//     Node.Rand).
//   - maporder: ranging over a map inside the scheduling core
//     (internal/sim, internal/ripsrt, internal/sched/...), where
//     iteration order is deliberately randomized by the runtime and
//     must not influence any scheduling decision. Order-insensitive
//     loops (commutative reductions) annotate with
//     //ripslint:allow maporder.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand and map-iteration-order dependence in the simulation core",
	Applies: func(rel string) bool {
		// Examples are pedagogical host programs, outside the contract.
		return !underDir(rel, "examples")
	},
	Run: runDeterminism,
}

// wallClockFuncs are the package time functions that read the host
// clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// sleepFuncs are the package time functions that inject host-timed
// delays or events into the schedule.
var sleepFuncs = map[string]bool{
	"Sleep": true, "Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandFuncs are the math/rand and math/rand/v2 package-level
// functions that build explicitly seeded generators rather than touching
// the global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// mapOrderScope lists the module-relative directories where scheduling
// decisions live and map iteration order is therefore load-bearing.
// internal/par is included: its phase protocol runs on real goroutines
// but its scheduling decisions (load snapshots, planning, transfers)
// carry the same determinism contract as the simulator's. File-scope
// maporder waivers are refused here — see Package.suppressed.
var mapOrderScope = []string{"internal/sim", "internal/ripsrt", "internal/sched", "internal/par"}

// inMapOrderScope reports whether the package directory rel is inside
// the scheduling core for maporder purposes.
func inMapOrderScope(rel string) bool {
	for _, d := range mapOrderScope {
		if underDir(rel, d) {
			return true
		}
	}
	return false
}

// computedDuration reports whether the call's first argument is a
// non-constant expression — a duration computed at run time rather
// than spelled in the source.
func computedDuration(p *Pass, call *ast.CallExpr) bool {
	if call == nil || len(call.Args) == 0 {
		return false
	}
	tv, ok := p.Pkg.Info.Types[call.Args[0]]
	return ok && tv.Value == nil
}

func runDeterminism(p *Pass) {
	inMapScope := inMapOrderScope(p.Pkg.Rel)
	for _, f := range p.Pkg.Files {
		// calls maps a call's Fun expression to the call, so the
		// selector cases below can inspect the arguments (Inspect
		// visits the CallExpr before its Fun).
		calls := map[ast.Expr]*ast.CallExpr{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				calls[n.Fun] = n
			case *ast.SelectorExpr:
				pkgPath, ok := importedPackage(p.Pkg.Info, n)
				if !ok {
					return true
				}
				// Only function references matter: type names like
				// rand.Rand or time.Duration carry no global state.
				if _, isFunc := p.Pkg.Info.Uses[n.Sel].(*types.Func); !isFunc {
					return true
				}
				switch {
				case pkgPath == "time" && wallClockFuncs[n.Sel.Name]:
					p.Reportf(n.Pos(), "wallclock",
						"time.%s reads the host clock; simulated code must use the virtual clock (sim.Time)", n.Sel.Name)
				case pkgPath == "time" && sleepFuncs[n.Sel.Name]:
					if computedDuration(p, calls[ast.Expr(n)]) {
						p.Reportf(n.Pos(), "sleep",
							"time.%s with a computed duration injects an adaptive host-timed delay that can feed measured state back into the schedule; the waiver policy is unchanged — justify per line or gate behind a build tag", n.Sel.Name)
						return true
					}
					p.Reportf(n.Pos(), "sleep",
						"time.%s injects host-timed delays into the schedule; justify per line or gate behind a build tag", n.Sel.Name)
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandFuncs[n.Sel.Name]:
					p.Reportf(n.Pos(), "rand",
						"rand.%s draws from the global math/rand source; use a seeded *rand.Rand (e.g. sim.Node.Rand)", n.Sel.Name)
				}
			case *ast.RangeStmt:
				if !inMapScope || n.X == nil {
					return true
				}
				if tv, ok := p.Pkg.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						p.Reportf(n.Pos(), "maporder",
							"map iteration order is randomized; scheduling code must not depend on it")
					}
				}
			}
			return true
		})
	}
}

// importedPackage resolves a selector whose X is a package name,
// returning the imported package path.
func importedPackage(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
