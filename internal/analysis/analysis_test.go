package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load each testdata package under a synthetic import
// path (to exercise the analyzers' scoping rules) and check the
// findings against // want "substr" comments: every want line must
// produce a finding whose rendered form contains the substring, and
// every finding must be covered by a want.

// sharedLoader is reused across subtests so the source importer
// type-checks each stdlib dependency once.
var sharedLoader *Loader

func TestMain(m *testing.M) {
	root, modPath, err := ModuleInfo(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "analysis_test:", err)
		os.Exit(1)
	}
	sharedLoader = NewLoader(root, modPath)
	os.Exit(m.Run())
}

func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		dir       string // under testdata/src
		path      string // synthetic import path
		analyzers []*Analyzer
	}{
		{"determinism_bad", "rips/internal/sim/fake", []*Analyzer{Determinism}},
		{"determinism_examples", "rips/examples/fake", []*Analyzer{Determinism}},
		{"determinism_mapscope", "rips/internal/metricsfake", []*Analyzer{Determinism}},
		{"filescope_waived", "rips/internal/par/fake", []*Analyzer{Determinism}},
		{"filescope_bad", "rips/internal/sim/fake2", []*Analyzer{Determinism}},
		{"perturb_untagged", "rips/internal/par/perturbfake", []*Analyzer{Determinism}},
		{"sleep_adaptive", "rips/internal/par/adaptivefake", []*Analyzer{Determinism}},
		{"errcheck_bad", "rips/internal/errfake", []*Analyzer{Errcheck}},
		{"panicpolicy_bad", "rips/internal/panicfake", []*Analyzer{PanicPolicy}},
		{"phaseproto_ok", "rips/internal/sched/fakealgo", []*Analyzer{PhaseProtocol}},
		{"phaseproto_bad", "rips/internal/sched/badalgo", []*Analyzer{PhaseProtocol}},
		{"phaseproto_waived", "rips/internal/sched/waived", []*Analyzer{PhaseProtocol}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.dir)
			pkg, err := sharedLoader.LoadDir(dir, c.path)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("type error in testdata: %v", terr)
			}
			checkGolden(t, dir, Unwaived(Run(pkg, c.analyzers)))
		})
	}
}

// TestModuleAnalyzersGolden is the whole-program counterpart of
// TestAnalyzersGolden: each testdata package is loaded as a one-package
// module and run through RunModule with the analyzer under test.
func TestModuleAnalyzersGolden(t *testing.T) {
	cases := []struct {
		dir       string // under testdata/src
		path      string // synthetic import path
		analyzers []*Analyzer
		module    []*ModuleAnalyzer
	}{
		{"hotpath_bad", "rips/internal/hotfake", nil, []*ModuleAnalyzer{Hotpath}},
		{"hotpath_waived", "rips/internal/hotwaived", nil, []*ModuleAnalyzer{Hotpath}},
		{"hotpath_filescope", "rips/internal/hotfile", nil, []*ModuleAnalyzer{Hotpath}},
		{"atomicmix_bad", "rips/internal/atomfake", nil, []*ModuleAnalyzer{AtomicMix}},
		{"ctxflow_bad", "rips/internal/ctxfake", nil, []*ModuleAnalyzer{CtxFlow}},
		{"deadwaiver_bad", "rips/internal/deadfake", []*Analyzer{Determinism}, []*ModuleAnalyzer{DeadWaiver}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", c.dir)
			pkg, err := sharedLoader.LoadDir(dir, c.path)
			if err != nil {
				t.Fatalf("load %s: %v", dir, err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("type error in testdata: %v", terr)
			}
			checkGolden(t, dir, Unwaived(RunModule([]*Package{pkg}, c.analyzers, c.module)))
		})
	}
}

// TestHotpathRootEdgeCases checks the diagnostics for malformed root
// annotations: unknown criteria tokens and annotations that precede no
// function.
func TestHotpathRootEdgeCases(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", "hotpath_roots"), "rips/internal/hotroots")
	if err != nil {
		t.Fatal(err)
	}
	findings := Unwaived(RunModule([]*Package{pkg}, nil, []*ModuleAnalyzer{Hotpath}))
	var unknown, dangling bool
	for _, f := range findings {
		if strings.Contains(f.Msg, `unknown hotpath criterion "frobnicate"`) {
			unknown = true
		}
		if strings.Contains(f.Msg, "does not precede a function") {
			dangling = true
		}
	}
	if !unknown {
		t.Error("no finding for the unknown criterion token")
	}
	if !dangling {
		t.Error("no finding for the annotation preceding no function")
	}
	if len(findings) != 2 {
		t.Errorf("got %d findings, want exactly 2: %v", len(findings), findings)
	}
}

// TestCallGraphSynthetic pins the call-graph builder's resolution on a
// synthetic package: interface dispatch fans out to every implementing
// module type, method values resolve through the address-taken set,
// and function-variable calls reach their candidates.
func TestCallGraphSynthetic(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", "callgraph_synth"), "rips/internal/cgfake")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	g := BuildCallGraph([]*Package{pkg})

	byName := map[string]*CGNode{}
	for _, n := range g.Nodes {
		byName[n.Name] = n
	}
	edges := func(caller string) map[string]bool {
		t.Helper()
		n := byName[caller]
		if n == nil {
			t.Fatalf("no node %s (have %v)", caller, nodeNames(g))
		}
		out := map[string]bool{}
		for _, e := range n.Calls {
			out[e.Callee.Name] = e.Dynamic
		}
		return out
	}

	// Interface dispatch: CHA fans out to both implementations.
	speak := edges("cgfake.CallSpeak")
	for _, want := range []string{"cgfake.Dog.Speak", "cgfake.Cat.Speak"} {
		if dyn, ok := speak[want]; !ok || !dyn {
			t.Errorf("CallSpeak -> %s: present=%v dynamic=%v, want a dynamic edge", want, ok, dyn)
		}
	}

	// Method value: f := d.Speak; f() resolves to the address-taken
	// Dog.Speak; Cat.Speak was never referenced and must not appear.
	mv := edges("cgfake.UseMethodValue")
	if dyn, ok := mv["cgfake.Dog.Speak"]; !ok || !dyn {
		t.Errorf("UseMethodValue -> Dog.Speak: present=%v dynamic=%v, want a dynamic edge", ok, dyn)
	}
	if _, ok := mv["cgfake.Cat.Speak"]; ok {
		t.Error("UseMethodValue resolved to Cat.Speak, which was never address-taken")
	}
	if dyn, ok := mv["cgfake.CallSpeak"]; !ok || dyn {
		t.Errorf("UseMethodValue -> CallSpeak: present=%v dynamic=%v, want a static edge", ok, dyn)
	}

	// Function variable: fp = helper; fp() reaches helper.
	if dyn, ok := edges("cgfake.CallFp")["cgfake.helper"]; !ok || !dyn {
		t.Errorf("CallFp -> helper: present=%v dynamic=%v, want a dynamic edge", ok, dyn)
	}

	// Address-taken marking.
	if n := byName["cgfake.Dog.Speak"]; n == nil || !n.AddrTaken {
		t.Error("Dog.Speak should be address-taken (method value)")
	}
	if n := byName["cgfake.helper"]; n == nil || !n.AddrTaken {
		t.Error("helper should be address-taken (package-level initializer)")
	}
	if n := byName["cgfake.CallFp"]; n == nil || n.AddrTaken {
		t.Error("CallFp should not be address-taken")
	}
}

func nodeNames(g *CallGraph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.Name)
	}
	return out
}

// want is one expectation parsed from a // want "substr" comment.
type want struct {
	file string // base name
	line int
	sub  string
	hit  bool
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants scans every .go file in dir for want comments.
func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &want{file: e.Name(), line: i + 1, sub: m[1]})
			}
		}
	}
	return wants
}

// checkGolden matches findings against want comments both ways.
func checkGolden(t *testing.T, dir string, findings []Finding) {
	t.Helper()
	wants := collectWants(t, dir)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(f.Pos.Filename) && w.line == f.Pos.Line && strings.Contains(f.String(), w.sub) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.sub)
		}
	}
}

// TestRealPackagesClean runs the full suite over a couple of real,
// dependency-light packages as an integration check: the committed
// tree must be finding-free.
func TestRealPackagesClean(t *testing.T) {
	for _, rel := range []string{"internal/task", "internal/topo", "internal/invariant", "internal/metrics", "internal/par"} {
		pkg, err := sharedLoader.Load(rel)
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", rel, pkg.TypeErrors)
		}
		for _, f := range Unwaived(Run(pkg, All())) {
			t.Errorf("%s: unexpected finding: %s", rel, f)
		}
		if rel != "internal/par" {
			continue
		}
		// Policy: the real-parallel backend waits by yielding, never by a
		// timer. Its last sleep waiver went with the stealing executor's
		// idle back-off; the default file set must not grow another (the
		// ripsperturb hook lives behind its build tag, outside it).
		for _, d := range pkg.directives {
			if d.check == "sleep" {
				t.Errorf("%s:%d: internal/par holds a sleep waiver (%s); wait by yielding instead", d.file, d.line, d.reason)
			}
		}
	}
}

// TestDirectiveScan checks the directive parser on the testdata tree:
// the suppressions in determinism_bad must be visible as parsed
// directives with their reasons intact.
func TestDirectiveScan(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", "determinism_bad"), "rips/internal/sim/fake")
	if err != nil {
		t.Fatal(err)
	}
	byCheck := map[string]int{}
	for _, d := range pkg.directives {
		byCheck[d.check]++
		if d.reason == "" {
			t.Errorf("directive for %s at line %d has no reason", d.check, d.line)
		}
	}
	if byCheck["maporder"] != 1 || byCheck["wallclock"] != 2 {
		t.Errorf("parsed directives = %v, want 1 maporder and 2 wallclock", byCheck)
	}
}

// TestFileScopeDirectiveScan checks the allow-file parser: the scope
// flag must be set, the check name must not swallow the "-file"
// marker, and a reasonless allow-file must be dropped at scan time.
func TestFileScopeDirectiveScan(t *testing.T) {
	pkg, err := sharedLoader.LoadDir(filepath.Join("testdata", "src", "filescope_bad"), "rips/internal/sim/fake2")
	if err != nil {
		t.Fatal(err)
	}
	var fileScope []*directive
	for _, d := range pkg.directives {
		if d.fileScope {
			fileScope = append(fileScope, d)
		}
	}
	if len(fileScope) != 1 {
		t.Fatalf("parsed %d file-scope directives, want 1 (the reasonless one dropped)", len(fileScope))
	}
	if d := fileScope[0]; d.check != "maporder" || d.reason == "" {
		t.Errorf("file-scope directive = %+v, want check maporder with a reason", d)
	}
}
