package lint

import (
	"go/ast"
	"go/types"
)

// TimeTaintRule closes the hole the nondet rule's internal/obs exemption
// opened: obs may read the wall clock, but nothing wall-clock-derived may
// flow back out of it into simulation or dataset code — through return
// values or through struct fields. The rule asks the interprocedural
// engine's taint summaries the transitive question per call site: a sim
// package calling a function that (through any chain of calls) returns a
// time.Now/Since/Until-derived value is flagged, as is reading a struct
// field some obs-side code stamps with one. Pure writes into obs
// (Counter.Add, Gauge.Set, StartPhase's returned closure) return nothing
// tainted and stay clean. Direct time.Now in sim code is nondet's
// finding, not this rule's — the two partition the hazard between them.
type TimeTaintRule struct{}

func (TimeTaintRule) Name() string { return "timetaint" }

func (TimeTaintRule) Doc() string {
	return "flag wall-clock-derived values escaping internal/obs into simulation code via returns or struct fields"
}

func (TimeTaintRule) CheckModule(a *Analysis, report ReportFunc) {
	for _, p := range a.Pkgs {
		if !underSim(p.Rel) || p.Rel == obsPackage {
			continue
		}
		checkTaintSites(a, p, report)
	}
}

// checkTaintSites flags, inside one clean package, every materialization
// of a tainted value: calls whose summary says "returns taint" and reads
// of tainted struct fields.
func checkTaintSites(a *Analysis, p *Package, report ReportFunc) {
	inspectWithStack(p, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := origin(calleeFunc(p.Info, n))
			if fn == nil {
				return
			}
			fi := a.byObj[fn]
			if fi == nil || !fi.returnsTaint {
				return
			}
			report(p, n.Pos(), "%s returns a wall-clock-derived value (%s); simulation code must not consume it — keep wall time write-only inside internal/obs", fn.Name(), fi.why)
		case *ast.SelectorExpr:
			sel, ok := p.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return
			}
			why, tainted := a.taintedFields[v]
			if !tainted || isAssignTarget(stack, n) {
				return
			}
			report(p, n.Pos(), "field %s holds a wall-clock-derived value (%s); simulation code must not read it back", v.Name(), why)
		}
	})
}

// isAssignTarget reports whether expr is a left-hand side of the nearest
// enclosing assignment — a write, which the write-site rules own, rather
// than a read of the tainted value.
func isAssignTarget(stack []ast.Node, expr ast.Expr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		for _, lhs := range as.Lhs {
			if anyNode(lhs, nil, func(n ast.Node) bool { return n == expr }) {
				return true
			}
		}
		return false
	}
	return false
}
