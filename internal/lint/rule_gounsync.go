package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoUnsyncRule is the static companion to `go test -race`: it flags
// goroutine closures sharing mutable captured variables with code outside
// the goroutine when no recognized mediation is in play. Mediation is
// type-based and deliberately coarse: channels, sync.* and sync/atomic
// types are trusted, as are element stores into captured slices — the
// repository's sanctioned slot-addressed pattern, where each goroutine
// owns a distinct index. Map stores, scalar writes, and field writes are
// not slot-addressed and are flagged. For `go f(...)` with a named
// callee, the interprocedural summaries supply the second half: spawning
// a function that transitively mutates package-level state is flagged
// even though the write is out of sight. The race detector only sees
// schedules that happen; this rule sees the ones that could.
type GoUnsyncRule struct{}

func (GoUnsyncRule) Name() string { return "gounsync" }

func (GoUnsyncRule) Doc() string {
	return "flag goroutines sharing captured or package-level mutable state without sync/atomic/channel mediation"
}

func (GoUnsyncRule) CheckModule(a *Analysis, report ReportFunc) {
	for _, fi := range a.funcs {
		if !underSim(fi.pkg.Rel) || fi.pkg.Rel == obsPackage {
			continue
		}
		for _, sp := range fi.spawns {
			checkSpawn(a, fi, sp, report)
		}
	}
}

func checkSpawn(a *Analysis, fi *funcInfo, sp goSpawn, report ReportFunc) {
	p := fi.pkg
	if sp.lit == nil {
		// go f(...): the hazard is f's transitive package-level writes.
		if sp.callee == nil {
			return
		}
		ci := a.byObj[sp.callee]
		if ci == nil || len(ci.writesGlobals) == 0 {
			return
		}
		v := sortedVars(ci.writesGlobals)[0]
		report(p, sp.stmt.Pos(), "goroutine runs %s, which mutates package-level %s; concurrent spawns race on it — pass per-run state or mediate with sync/atomic", sp.callee.Name(), v.Name())
		return
	}
	for _, v := range sp.captured {
		if mediatedType(v.Type()) {
			continue
		}
		wInside := writesVar(p.Info, sp.lit, v, nil, token.NoPos)
		// Outside writes only count after the spawn: everything textually
		// before it is sequenced before the goroutine exists (the
		// build-then-spawn idiom), so only later writes can race.
		wOutside := writesVar(p.Info, fi.decl, v, sp.lit, sp.stmt.End())
		if wOutside {
			report(p, sp.stmt.Pos(), "goroutine captures %s, which is also written outside the goroutine without sync/atomic/channel mediation", v.Name())
			continue
		}
		usedAfter := func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			return ok && id.Pos() > sp.stmt.End() && p.Info.ObjectOf(id) == v
		}
		if wInside && anyNode(fi.decl, func(n ast.Node) bool { return n == sp.lit }, usedAfter) {
			report(p, sp.stmt.Pos(), "goroutine writes captured %s, which is used after the spawn without sync/atomic/channel mediation", v.Name())
		}
	}
}

// mediatedType reports whether values of t carry their own
// happens-before story: channels, sync.* / sync/atomic types, and
// pointers to them.
func mediatedType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return mediatedType(ptr.Elem())
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// writesVar reports whether root contains a mutating access to v,
// skipping the subtree `except` (the goroutine literal, when scanning the
// rest of the enclosing function) and any write at or before `after`.
// Declarations, per-iteration loop variables (for/range clauses,
// Go ≥1.22 semantics), and slice element stores (the slot-addressed
// pattern) do not count as mutation.
func writesVar(info *types.Info, root ast.Node, v *types.Var, except ast.Node, after token.Pos) bool {
	write := func(n ast.Node) bool { return isWriteOf(info, n, v) && nodeAfter(n, after) }
	isExcept := func(n ast.Node) bool { return n == except }
	// A loop whose clause owns v answers for its own subtree.
	prune := func(n ast.Node) bool { return n == except || loopOwns(info, n, v) }
	return anyNode(root, prune, func(n ast.Node) bool {
		if !loopOwns(info, n, v) {
			return write(n)
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			// Key/Value are per-iteration; search X and Body only.
			return anyNode(n.Body, isExcept, write) || n.X != nil && writesVar(info, n.X, v, except, after)
		case *ast.ForStmt:
			// Init/Post writes to v are the per-iteration loop clause.
			return n.Cond != nil && writesVar(info, n.Cond, v, except, after) || writesVar(info, n.Body, v, except, after)
		}
		return false
	})
}

// loopOwns reports whether n is a for or range statement whose clause
// declares or steps v: a range with v as key or value, or a for loop
// whose init or post writes v.
func loopOwns(info *types.Info, n ast.Node, v *types.Var) bool {
	switch n := n.(type) {
	case *ast.RangeStmt:
		return targetsVar(info, n.Key, v) || targetsVar(info, n.Value, v)
	case *ast.ForStmt:
		return clauseWrites(info, n, v)
	}
	return false
}

// nodeAfter reports whether n starts after pos (always true for NoPos).
func nodeAfter(n ast.Node, pos token.Pos) bool {
	return !pos.IsValid() || n.Pos() > pos
}

// clauseWrites reports whether the for statement's init/post clause is
// what writes v.
func clauseWrites(info *types.Info, f *ast.ForStmt, v *types.Var) bool {
	for _, s := range []ast.Stmt{f.Init, f.Post} {
		if s == nil {
			continue
		}
		if anyNode(s, nil, func(n ast.Node) bool { return isWriteOf(info, n, v) }) {
			return true
		}
	}
	return false
}

// isWriteOf reports whether node n mutates v: a plain assignment or
// inc/dec whose target resolves to v, a map element store, or a field
// store through v. Slice element stores are the sanctioned slot-addressed
// concurrency pattern and are excluded; := definitions are declarations.
func isWriteOf(info *types.Info, n ast.Node, v *types.Var) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if mutatesVar(info, lhs, v, n.Tok == token.DEFINE) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return mutatesVar(info, n.X, v, false)
	}
	return false
}

// mutatesVar resolves one assignment target against v.
func mutatesVar(info *types.Info, lhs ast.Expr, v *types.Var, define bool) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if define && info.Defs[x] != nil {
			return false // declaration, not mutation
		}
		return info.ObjectOf(x) == v
	case *ast.IndexExpr:
		if base := baseObject(info, x.X); base != v {
			return false
		}
		// Slice stores are slot-addressed; map stores are not.
		_, isMap := info.TypeOf(x.X).Underlying().(*types.Map)
		return isMap
	case *ast.SelectorExpr:
		return baseObject(info, x) == v
	case *ast.StarExpr:
		return baseObject(info, x.X) == v
	}
	return false
}

// targetsVar reports whether a range clause expr is exactly v.
func targetsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	if e == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.ObjectOf(id) == v
}
