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
	// TestSteadyStateZeroAlloc in internal/par): the phase loop, both
	// leader callbacks, the parallel plan application, and the queue
	// operations under them.
	for _, fn := range []string{
		"par.(*ripsRun).workerMain",
		"par.(*ripsRun).phaseStep",
		"par.(*ripsRun).userPhase",
		"par.(*detector).await",
		"par.(*detector).requested",
		"par.(*detector).current",
		"par.(*ripsRun).execute",
		"par.(*ripsRun).beginPhase",
		"par.(*ripsRun).finishPhase",
		"par.(*detector).update",
		"par.(*ripsRun).stageMoves",
		"par.(*ripsRun).partitionWaves",
		"par.(*ripsRun).waveRange",
		"par.(*ripsRun).applyTake",
		"par.(*ripsRun).applyPush",
		"par.(*ripsRun).takeMove",
		"par.(*ripsRun).pushMove",
		"par.(*epochBarrier).await",
		"par.(*ripsWorker).newID",
		"task.(*Queue).PushAll",
		"task.(*Queue).PushBack",
		"task.(*Queue).PopFront",
		"task.(*Queue).TakeBackInto",
		"task.(*Queue).Len",
		"task.(*Queue).maybeCompact",
		"task.(*Queue).grow",
		"task.(*Queue).compact",
		"invariant.Enabled",
		"invariant.Conserved",
		"invariant.BalancedWithinOne",
		"app.ExecuteCount",
	} {
		if !hotSet[fn] {
			t.Errorf("hotpath proof does not cover %s (exercised by TestSteadyStateZeroAlloc)", fn)
		}
	}
	// The deque engine's per-task path (Hybrid and Steal), proven
	// allocation-free apart from the slab refill, the pending list's
	// growth and deque.grow; TestDequeExecutorAllocs samples the same.
	for _, fn := range []string{
		"par.(*hybridRun).execute",
		"par.(*hybridWorker).release",
		"par.(*hybridWorker).newID",
		"par.(*deque).push",
	} {
		if !hotSet[fn] {
			t.Errorf("hotpath proof does not cover %s (exercised by TestDequeExecutorAllocs)", fn)
		}
	}
	// The emit closures are rooted separately (dynamic call from the
	// application); they appear as function literal nodes.
	for _, ctor := range []string{"par.newRipsRun", "par.newHybridRun"} {
		found := false
		for _, name := range hot {
			if strings.HasPrefix(name, ctor+".func@") {
				found = true
			}
		}
		if !found {
			t.Errorf("hotpath proof does not cover the emit closure of %s (hot set: %d functions)", ctor, len(hot))
		}
	}
	// The simulated backend's map-criterion root.
	if !hotSet["ripsrt.nodeMain"] {
		t.Error("hotpath proof does not cover ripsrt.nodeMain")
	}
}
