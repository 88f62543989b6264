package lint

import (
	"go/types"
	"testing"
)

// findFunc looks a function or method up in the loaded fixture packages
// by module-relative dir, optional receiver type name, and name.
func findFunc(t *testing.T, pkgs []*Package, rel, recv, name string) *types.Func {
	t.Helper()
	for _, p := range pkgs {
		if p.Rel != rel {
			continue
		}
		if recv == "" {
			if fn, ok := p.Pkg.Scope().Lookup(name).(*types.Func); ok {
				return fn
			}
			continue
		}
		obj := p.Pkg.Scope().Lookup(recv)
		if obj == nil {
			continue
		}
		o, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p.Pkg, name)
		if fn, ok := o.(*types.Func); ok {
			return fn
		}
	}
	t.Fatalf("fixture function %s/%s.%s not found", rel, recv, name)
	return nil
}

// factsOf returns the engine's summary of fn, failing the test when the
// engine has none.
func factsOf(t *testing.T, a *Analysis, fn *types.Func) *funcInfo {
	t.Helper()
	fi := a.byObj[origin(fn)]
	if fi == nil {
		t.Fatalf("no summary for %s", fn.FullName())
	}
	return fi
}

// TestAnalysisTaintSummaries pins the taint half of the interprocedural
// engine against the timetaint mini-module: taint enters at time.Since,
// flows through an unexported helper, and surfaces in Elapsed's summary
// with the full provenance chain — while the write-only counter surface
// stays clean.
func TestAnalysisTaintSummaries(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "timetaint")
	a := Analyze(pkgs)

	elapsed := factsOf(t, a, findFunc(t, pkgs, "internal/obs", "Recorder", "Elapsed"))
	if !elapsed.returnsTaint {
		t.Fatal("Elapsed not summarized as returning taint")
	}
	if want := "Elapsed ← sinceStart ← time.Since"; elapsed.why != want {
		t.Errorf("Elapsed provenance = %q, want %q", elapsed.why, want)
	}

	for _, name := range []string{"Add", "Ticks", "Stamp"} {
		if fi := factsOf(t, a, findFunc(t, pkgs, "internal/obs", "Recorder", name)); fi.returnsTaint {
			t.Errorf("%s summarized as returning taint (%s); counter surface must stay clean", name, fi.why)
		}
	}
	if factsOf(t, a, findFunc(t, pkgs, "internal/obs", "", "New")).returnsTaint {
		t.Error("New summarized as returning taint; a recorder value is not a clock reading")
	}
}

// TestAnalysisGlobalWrites pins the global-write half: direct writes,
// the transitive closure through calls, and the read-only negative.
func TestAnalysisGlobalWrites(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "globalmut")
	a := Analyze(pkgs)

	writes := func(rel, name string) []*types.Var {
		return sortedVars(factsOf(t, a, findFunc(t, pkgs, rel, "", name)).writesGlobals)
	}
	names := func(vars []*types.Var) map[string]bool {
		m := map[string]bool{}
		for _, v := range vars {
			m[v.Name()] = true
		}
		return m
	}

	bump := writes("internal/obs", "Bump")
	if !names(bump)["hits"] {
		t.Errorf("Bump writesGlobals = %v, want hits", bump)
	}

	record := writes("internal/sim", "Record")
	got := names(record)
	for _, want := range []string{"runCount", "lookup", "hits"} {
		if !got[want] {
			t.Errorf("Record writesGlobals missing %s (direct + transitive), got %v", want, record)
		}
	}

	if snap := writes("internal/obs", "Snapshot"); len(snap) != 0 {
		t.Errorf("Snapshot writesGlobals = %v, want none (read-only)", snap)
	}
	if gen := writes("internal/sim", "Gen"); len(gen) != 0 {
		t.Errorf("Gen writesGlobals = %v, want none (read-only)", gen)
	}
}

// TestAnalysisCallGraph pins call-graph edges and their deterministic
// ordering.
func TestAnalysisCallGraph(t *testing.T) {
	pkgs := loadModuleFixtureT(t, "globalmut")
	a := Analyze(pkgs)

	record := findFunc(t, pkgs, "internal/sim", "", "Record")
	callees := a.Callees(record)
	found := false
	for _, c := range callees {
		if c.Name() == "Bump" {
			found = true
		}
	}
	if !found {
		t.Errorf("Callees(Record) = %v, missing Bump", callees)
	}

	via := findFunc(t, pkgs, "internal/sim", "", "viaSibling")
	callees = a.Callees(via)
	if len(callees) != 1 || callees[0].Name() != "Record" {
		t.Errorf("Callees(viaSibling) = %v, want exactly Record", callees)
	}
}
