package lint

import (
	"strings"
	"testing"
)

// TestParseHotMark pins the directive grammar for the two hot-path verbs.
func TestParseHotMark(t *testing.T) {
	cases := []struct {
		text    string
		verb    string
		reason  string
		ok      bool
		wantErr bool
	}{
		{"//lint:hotroot", hotrootVerb, "", true, false},
		{"//lint:hotroot — per-tick entry point", hotrootVerb, "per-tick entry point", true, false},
		{"//lint:cold — runs once per campaign", coldVerb, "runs once per campaign", true, false},
		{"//lint:cold -- runs once", coldVerb, "runs once", true, false},
		{"//lint:cold", coldVerb, "", true, true},
		{"//lint:allow nondet — x", "", "", false, false},
		{"//lint:hotrooted", "", "", false, false},
		{"// plain comment", "", "", false, false},
		{"/*lint:hotroot*/", "", "", false, false},
	}
	for _, tc := range cases {
		verb, reason, ok, errMsg := parseHotMark(tc.text)
		if ok != tc.ok || (errMsg != "") != tc.wantErr {
			t.Errorf("parseHotMark(%q) ok=%v err=%q, want ok=%v wantErr=%v", tc.text, ok, errMsg, tc.ok, tc.wantErr)
			continue
		}
		if ok && errMsg == "" && (verb != tc.verb || reason != tc.reason) {
			t.Errorf("parseHotMark(%q) = (%q, %q), want (%q, %q)", tc.text, verb, reason, tc.verb, tc.reason)
		}
	}
}

// TestHotPropagation pins the interprocedural half against the hotalloc
// mini-module: hotness crosses the package boundary from engine.Run into
// helper, carrying a provenance chain, while the cold barrier keeps Cold
// out.
func TestHotPropagation(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "hotalloc")
	a := Analyze(pkgs)

	run := factsOf(t, a, findFunc(t, pkgs, "internal/engine", "", "Run"))
	if !run.hot || run.hotWhy != "Run" {
		t.Errorf("Run hot=%v why=%q, want hot root with chain \"Run\"", run.hot, run.hotWhy)
	}

	step := factsOf(t, a, findFunc(t, pkgs, "internal/engine", "", "step"))
	if !step.hot || step.hotWhy != "step ← Run" {
		t.Errorf("step hot=%v why=%q, want \"step ← Run\"", step.hot, step.hotWhy)
	}

	grow := factsOf(t, a, findFunc(t, pkgs, "internal/helper", "", "Grow"))
	if !grow.hot || grow.hotWhy != "Grow ← step ← Run" {
		t.Errorf("Grow hot=%v why=%q, want cross-package chain \"Grow ← step ← Run\"", grow.hot, grow.hotWhy)
	}

	cold := factsOf(t, a, findFunc(t, pkgs, "internal/helper", "", "Cold"))
	if cold.hot {
		t.Error("Cold marked hot despite //lint:cold barrier")
	}
	if !cold.cold {
		t.Error("Cold carries no //lint:cold barrier in its summary")
	}
}

// TestHotColdBarrierTransitive pins that cold stops propagation through
// its callees, not just at itself: a function only reachable via a cold
// function stays cold.
func TestHotColdBarrierTransitive(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "timetaint")
	a := Analyze(pkgs)
	// The timetaint module declares no hot roots at all: nothing is hot.
	for _, fi := range a.funcs {
		if fi.hot {
			t.Errorf("%s hot without any //lint:hotroot in the module", fi.obj.FullName())
		}
	}
}

// TestHotRulesRespectColdFixture pins the end-to-end behavior the
// goldens rely on: running the hot rules over the hotalloc module yields
// findings only in hot functions, never in Cold's body.
func TestHotRulesRespectColdFixture(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "hotalloc")
	diags := RunWorkers(pkgs, []Rule{HotAllocRule{}, HotDeferRule{}, HotBoxRule{}}, 1)
	for _, d := range diags {
		if d.Rule == DirectiveRule {
			t.Errorf("malformed directive in fixture: %v", d)
		}
	}
	for _, d := range diags {
		// Cold's make() lives on line 30 of helper.go; nothing may be
		// reported inside the cold body.
		if d.Pos.Line >= 28 && strings.HasSuffix(d.Pos.Filename, "helper.go") {
			t.Errorf("finding inside //lint:cold body: %v", d)
		}
	}
}
