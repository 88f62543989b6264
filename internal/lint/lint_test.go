package lint

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*/expected.txt goldens")

// loadFixtureT loads one fixture dir, presenting it at a module-relative
// path under internal/ so path-scoped rules apply.
func loadFixtureT(t *testing.T, name string) *Package {
	t.Helper()
	p, err := LoadFixture(filepath.Join("testdata", name), "internal/fixture/"+filepath.ToSlash(name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// moduleFixtures names the fixtures that are miniature modules (own
// go.mod, several packages) rather than single directories. The
// interprocedural rules need them: taint has to cross a package boundary
// and hit the real internal/obs exemption paths.
var moduleFixtures = map[string]bool{
	"timetaint":    true,
	"globalmut":    true,
	"directiveipa": true,
	"hotalloc":     true,
}

// loadModuleFixtureT loads a mini-module fixture with the real module
// loader, so Rel values like "internal/obs" trigger the same path-scoped
// behavior they do in the repository itself.
func loadModuleFixtureT(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// loadFixturePkgsT dispatches on fixture shape.
func loadFixturePkgsT(t *testing.T, name string) []*Package {
	t.Helper()
	if moduleFixtures[name] {
		return loadModuleFixtureT(t, name)
	}
	return []*Package{loadFixtureT(t, name)}
}

// render formats diagnostics with fixture-relative file names, one per
// line — the exact golden format. Single-dir fixtures carry relative
// filenames, module fixtures absolute ones; both relativize against dir.
func render(dir string, diags []Diagnostic) string {
	abs, _ := filepath.Abs(dir)
	var b strings.Builder
	for _, d := range diags {
		for _, base := range []string{dir, abs} {
			if rel, err := filepath.Rel(base, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = filepath.ToSlash(rel)
				break
			}
		}
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestRuleFixtures runs each rule over its fixture corpus and compares
// the diagnostics against the expected.txt golden. It also guards the
// corpus itself: each rule's fixture must yield at least one finding of
// that rule, or its golden would be vacuously green. Run with -update to
// regenerate the goldens after changing a rule or fixture.
func TestRuleFixtures(t *testing.T) {
	type fixtureCase struct {
		name  string
		rules []Rule
		own   bool // the fixture belongs to its single rule
	}
	var cases []fixtureCase
	for _, r := range AllRules() {
		cases = append(cases, fixtureCase{r.Name(), []Rule{r}, true})
	}
	cases = append(cases,
		fixtureCase{"directive", AllRules(), false},
		fixtureCase{"directiveipa", AllRules(), false})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.name)
			diags := Run(loadFixturePkgsT(t, tc.name), tc.rules)
			if tc.own && !slices.ContainsFunc(diags, func(d Diagnostic) bool { return d.Rule == tc.name }) {
				t.Errorf("fixture %s produces no %s findings", dir, tc.name)
			}
			got := render(dir, diags)
			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixturesExerciseEveryRule guards the checked-in corpus without
// running it again: every rule must have a fixture whose golden holds at
// least one finding of that rule. TestRuleFixtures pins each run to its
// golden, so together they keep a rule from going vacuously green.
func TestFixturesExerciseEveryRule(t *testing.T) {
	for _, rule := range AllRules() {
		golden := filepath.Join("testdata", rule.Name(), "expected.txt")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("rule %s has no fixture golden: %v", rule.Name(), err)
			continue
		}
		if !strings.Contains(string(want), "["+rule.Name()+"] ") {
			t.Errorf("golden %s holds no %s findings", golden, rule.Name())
		}
	}
}

// TestNondetObsExemption pins the nondet rule's package-level exemption:
// wall-clock reads are findings everywhere in the simulation tree except
// internal/obs, the designated observability side channel. The same
// fixture source is loaded at both rel paths so the only variable is the
// exemption.
func TestNondetObsExemption(t *testing.T) {
	dir := filepath.Join("testdata", "nondetobs")

	asObs, err := LoadFixture(dir, "internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{asObs}, []Rule{NondetRule{}}); len(diags) != 0 {
		t.Errorf("internal/obs not exempt from nondet: %v", diags)
	}

	asOther, err := LoadFixture(dir, "internal/notobs")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{asOther}, []Rule{NondetRule{}})
	if len(diags) != 2 {
		t.Fatalf("control package produced %d nondet findings, want 2 (time.Now, time.Since): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "nondet" {
			t.Errorf("unexpected rule %q", d.Rule)
		}
	}
}

// TestNondetFleetNotExempt pins that the obs exemption does not leak to
// the fleet engine: internal/fleet orchestrates simulations, so its
// output is part of the determinism contract, and wall-clock reads in
// fleet code must fail lint exactly as in any other simulation package.
// The same fixture source used to pin the internal/obs exemption is
// presented at the internal/fleet path and must produce findings.
func TestNondetFleetNotExempt(t *testing.T) {
	dir := filepath.Join("testdata", "nondetobs")
	asFleet, err := LoadFixture(dir, "internal/fleet")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{asFleet}, []Rule{NondetRule{}})
	if len(diags) != 2 {
		t.Fatalf("internal/fleet produced %d nondet findings, want 2 (time.Now, time.Since): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "nondet" {
			t.Errorf("unexpected rule %q", d.Rule)
		}
	}
}

// TestNondetUENotExempt pins that the obs exemption does not leak to the
// crowd engine: internal/ue's event wheel and positional draws are core
// simulation state, so wall-clock reads there must fail lint exactly as
// in any other simulation package. The same fixture source used to pin
// the internal/obs exemption is presented at the internal/ue path and
// must produce findings.
func TestNondetUENotExempt(t *testing.T) {
	dir := filepath.Join("testdata", "nondetobs")
	asUE, err := LoadFixture(dir, "internal/ue")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{asUE}, []Rule{NondetRule{}})
	if len(diags) != 2 {
		t.Fatalf("internal/ue produced %d nondet findings, want 2 (time.Now, time.Since): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "nondet" {
			t.Errorf("unexpected rule %q", d.Rule)
		}
	}
}

// TestDiagnosticOrdering feeds two multi-file packages to Run in reversed
// order and requires the output sorted by file, then position — the
// property that makes the linter's own output deterministic.
func TestDiagnosticOrdering(t *testing.T) {
	p1 := loadFixtureT(t, filepath.Join("ordering", "p1"))
	p2 := loadFixtureT(t, filepath.Join("ordering", "p2"))

	diags := Run([]*Package{p2, p1}, AllRules()) // deliberately reversed
	if len(diags) == 0 {
		t.Fatal("ordering fixtures produced no diagnostics")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename {
			t.Errorf("diagnostic %d (%s) sorted after %s", i-1, a.Pos.Filename, b.Pos.Filename)
		}
		if a.Pos.Filename == b.Pos.Filename && (a.Pos.Line > b.Pos.Line ||
			(a.Pos.Line == b.Pos.Line && a.Pos.Column > b.Pos.Column)) {
			t.Errorf("within %s, position %d:%d sorted after %d:%d",
				a.Pos.Filename, a.Pos.Line, a.Pos.Column, b.Pos.Line, b.Pos.Column)
		}
	}

	var seq []string
	for _, d := range diags {
		seq = append(seq, filepath.Base(d.Pos.Filename)+":"+d.Rule)
	}
	want := []string{
		"a.go:nondet", "a.go:nondet", // two time.Now in p1/a.go
		"b.go:nondet",     // os.Getenv in p1/b.go
		"c.go:sortstable", // sort.Slice in p2/c.go
		"c.go:nondet",     // time.Since in p2/c.go
	}
	if strings.Join(seq, " ") != strings.Join(want, " ") {
		t.Errorf("diagnostic sequence = %v, want %v", seq, want)
	}
}

// TestLoadModuleSelf loads the real module and checks the linter can see
// every package (and that this package reports itself lint-clean, since
// `make lint` gates CI on exactly that).
func TestLoadModuleSelf(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root, "./internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Rel != "internal/lint" {
		t.Fatalf("LoadModule(./internal/lint) = %d pkgs, want exactly internal/lint", len(pkgs))
	}
	if diags := Run(pkgs, AllRules()); len(diags) != 0 {
		t.Errorf("internal/lint is not lint-clean: %v", diags)
	}
}

// TestModuleConcurrencyClean pins the PR-series contract for the
// concurrency/resource layer: the whole module runs clean under the
// four rules, with the checked-in baseline EMPTY — every real finding
// was fixed or reason-annotated at the site, not swept into the
// ratchet file.
func TestModuleConcurrencyClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := LoadBaseline(filepath.Join(root, "lint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bl.Entries); n != 0 {
		t.Errorf("lint-baseline.json carries %d entries; the concurrency rules must hold with an empty baseline", n)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	rules := []Rule{GoLeakRule{}, CtxFlowRule{}, LockHoldRule{}, ResLeakRule{}}
	if diags := Run(pkgs, rules); len(diags) != 0 {
		t.Errorf("module is not clean under the concurrency/resource rules:\n%s", render(root, diags))
	}
}

// TestRunWorkersByteIdentical pins the linter's own determinism
// contract: the rendered diagnostics are byte-identical for every worker
// count, including module rules whose engine runs after the parallel
// per-package pass.
func TestRunWorkersByteIdentical(t *testing.T) {
	var pkgs []*Package
	pkgs = append(pkgs, loadModuleFixtureT(t, "timetaint")...)
	pkgs = append(pkgs, loadModuleFixtureT(t, "hotalloc")...)
	pkgs = append(pkgs, loadFixtureT(t, "gounsync"), loadFixtureT(t, "units"),
		loadFixtureT(t, "hotdefer"), loadFixtureT(t, "hotbox"),
		loadFixtureT(t, "goleak"), loadFixtureT(t, "ctxflow"),
		loadFixtureT(t, "lockhold"), loadFixtureT(t, "resleak"))

	want := render(".", RunWorkers(pkgs, AllRules(), 1))
	if want == "" {
		t.Fatal("determinism corpus produced no diagnostics")
	}
	for _, workers := range []int{2, 3, 8, 64} {
		if got := render(".", RunWorkers(pkgs, AllRules(), workers)); got != want {
			t.Errorf("workers=%d output differs:\n--- got ---\n%s--- want (workers=1) ---\n%s", workers, got, want)
		}
	}
}

// TestDirectiveCrossPackageSuppression pins satellite behavior of the
// interprocedural rules: a //lint:allow placed at the *call site*
// suppresses a timetaint finding whose root cause (the wall-clock read)
// lives in another package, because suppression anchors at the reported
// position. The control function without a directive must still be
// flagged, and a one-line multi-rule directive must quiet exactly the
// rules it names.
func TestDirectiveCrossPackageSuppression(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "directiveipa")
	diags := Run(pkgs, AllRules())

	byRule := map[string]int{}
	for _, d := range diags {
		byRule[d.Rule]++
	}
	// Four timetaint sites exist (suppressed, unsuppressed, multi,
	// partial); the directives must leave exactly two: unsuppressed's and
	// partial's.
	if byRule["timetaint"] != 2 {
		t.Errorf("timetaint findings = %d, want 2 (directives must suppress the other two): %v", byRule["timetaint"], diags)
	}
	// Both direct time.Now calls carry an allow naming nondet.
	if byRule["nondet"] != 0 {
		t.Errorf("nondet findings = %d, want 0 (both sites carry allows): %v", byRule["nondet"], diags)
	}
	if byRule[DirectiveRule] != 0 {
		t.Errorf("malformed directives in fixture: %v", diags)
	}
}
