package analysis

import (
	"strings"
	"testing"
)

// loadModulePkgs loads every package of the module through the shared
// loader, as the ripslint driver does for a ./... invocation.
func loadModulePkgs(t *testing.T) []*Package {
	t.Helper()
	dirs, err := PackageDirs(sharedLoader.ModuleRoot, "")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, rel := range dirs {
		pkg, err := sharedLoader.Load(rel)
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", rel, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestModuleClean gates the tree on the full suite, whole-program
// analyzers included: `go test ./internal/analysis` fails on any
// unwaived finding anywhere in the module, exactly like the CI
// ripslint step.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	pkgs := loadModulePkgs(t)
	for _, f := range Unwaived(RunModule(pkgs, All(), AllModule())) {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestHotpathCoverage pins the hotpath proof's reach: every function
// TestSteadyStateZeroAlloc exercises dynamically must be covered by
// the //ripslint:hotpath roots, so the static proof subsumes the
// sampled one. If a rename or refactor drops one of these off the
// traversal, the proof has a hole and this test names it.
func TestHotpathCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; run without -short")
	}
	pkgs := loadModulePkgs(t)
	hot := HotFunctions(pkgs, BuildCallGraph(pkgs))
	hotSet := map[string]bool{}
	for _, name := range hot {
		hotSet[name] = true
	}
	// The steady-state hot set of the real-parallel backend (see
	// TestSteadyStateZeroAlloc and TestDequeExecutorAllocs in
	// internal/par): the one engine's phase loop, the leader's system
	// phase and its plan application, the steal sweep and the deque
	// operations under them — proven allocation-free apart from the slab
	// refill, the growth of the pending list and of the system phase's
	// scratch, and deque.grow.
	for _, fn := range []string{
		"par.(*engineRun).phaseLoop",
		"par.(*engineRun).phaseStep",
		"par.(*engineRun).userPhase",
		"par.(*engineRun).stealLocal",
		"par.(*detector).await",
		"par.(*detector).requested",
		"par.(*detector).current",
		"par.(*engineRun).execute",
		"par.(*engineRun).beginPhase",
		"par.(*engineRun).finishPhase",
		"par.(*detector).update",
		"par.BalancedCanonical",
		"par.(*engineRun).takeMove",
		"par.(*engineRun).pushMove",
		"par.(*epochBarrier).await",
		"par.(*engineWorker).release",
		"par.(*engineWorker).newID",
		"par.(*deque).push",
		"par.(*deque).pop",
		"par.(*deque).steal",
		"par.(*deque).size",
		"par.(*deque).takeTopInto",
		"par.(*deque).takeBottomInto",
		"par.(*deque).copyOut",
		"invariant.Enabled",
		"invariant.Conserved",
		"invariant.BalancedWithinOne",
		"app.ExecuteCount",
	} {
		if !hotSet[fn] {
			t.Errorf("hotpath proof does not cover %s (exercised by TestSteadyStateZeroAlloc)", fn)
		}
	}
	// The emit closure is rooted separately (dynamic call from the
	// application); it appears as a function literal node.
	found := false
	for _, name := range hot {
		if strings.HasPrefix(name, "par.newEngineRun.func@") {
			found = true
		}
	}
	if !found {
		t.Errorf("hotpath proof does not cover the emit closure of par.newEngineRun (hot set: %d functions)", len(hot))
	}
	// The simulated backend's map-criterion root.
	if !hotSet["ripsrt.nodeMain"] {
		t.Error("hotpath proof does not cover ripsrt.nodeMain")
	}
}
