package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the analyzer: a module-wide
// call graph plus per-function dataflow summaries, computed once per Run
// and handed to ModuleRules. Summaries answer transitive questions the
// per-file rules cannot: "does this function return a wall-clock-derived
// value?", "which package-level variables does it (or anything it calls)
// write?", "what does this goroutine capture?". Propagation is a
// fixed-point iteration over a finite monotone lattice — each pass can
// only turn bits on, so it terminates — and every worklist is processed
// in source order so the result (and therefore the diagnostics built
// from it) is deterministic.
//
// Known limitations, deliberate for a stdlib-only analyzer: calls
// through function values, interface methods, and reflection are not
// resolved (no edge, no taint), and pointer aliasing is not tracked.
// The rules built on top are therefore under-approximate: they miss
// exotic flows but do not invent impossible ones.

// Analysis is the module-wide interprocedural state handed to ModuleRules.
type Analysis struct {
	// Pkgs are the packages under analysis, in load order.
	Pkgs []*Package
	// funcs holds one entry per declared function or method with a body,
	// sorted by source position for deterministic iteration.
	funcs []*funcInfo
	// byObj maps the canonical (generic-origin) object to its info.
	byObj map[*types.Func]*funcInfo
	// taintedFields are struct fields that somewhere in the module are
	// assigned a wall-clock-derived value; reading one re-introduces the
	// taint at the read site, which is how taint crosses packages through
	// state rather than return values.
	taintedFields map[*types.Var]string // field -> provenance chain
	// taintedGlobals are package-level variables assigned a wall-clock-
	// derived value anywhere in the module.
	taintedGlobals map[*types.Var]string
	// cfgs caches per-function control-flow graphs, built lazily by
	// loopDepthAt (hot.go). Keyed by *ast.FuncDecl / *ast.FuncLit.
	cfgs map[ast.Node]*CFG
}

// funcInfo is one function's summary.
type funcInfo struct {
	obj  *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	// returnsTaint: some return value is (transitively) derived from a
	// wall-clock read. why is the provenance chain, innermost source
	// last, e.g. "Elapsed ← time.Since".
	returnsTaint bool
	why          string

	// writesGlobals is the set of package-level variables this function
	// writes directly or through anything it (transitively) calls.
	// Writes made inside init functions are initialization, not mutation,
	// and are excluded at collection time.
	writesGlobals map[*types.Var]bool

	// calls are the resolved module-internal callees, deduplicated.
	calls map[*types.Func]bool

	// spawns records each `go` statement in the body.
	spawns []goSpawn

	// hotRoot/cold are the //lint:hotroot and //lint:cold doc directives;
	// hot is the propagated fact (reachable from a root through the call
	// graph without crossing a cold barrier), hotWhy the provenance chain.
	hotRoot bool
	cold    bool
	hot     bool
	hotWhy  string

	// blocks: executing this function can block indefinitely — a channel
	// operation, a select without default, a blocking stdlib call (HTTP
	// round-trip, Accept, Wait), or a callee that does. blocksWhy is the
	// provenance chain. receivesCancel: the function observes a
	// cancellation or join signal (channel op, select, ctx.Done,
	// WaitGroup/Cond) itself or through a callee. Both exclude code inside
	// nested closures and go statements, which run on other goroutines or
	// not at all (see conc.go).
	blocks         bool
	blocksWhy      string
	receivesCancel bool

	// concSites is the raw material for the two bits above and the
	// ctxflow rule: the blocking walker's sites outside nested closures
	// and go statements, resolved callees included, in source order.
	concSites []blockSite
}

// goSpawn is one `go` statement: either a closure with its captured
// variables, or a resolved named callee.
type goSpawn struct {
	stmt *ast.GoStmt
	// lit is non-nil for `go func(){...}()`.
	lit *ast.FuncLit
	// callee is the resolved function for `go f(...)` (nil for closures
	// and unresolvable calls).
	callee *types.Func
	// captured are the enclosing-function variables the closure mentions,
	// sorted by declaration position.
	captured []*types.Var
}

// Callees returns fn's resolved module-internal callees in source order
// of first call.
func (a *Analysis) Callees(fn *types.Func) []*types.Func {
	fi := a.byObj[origin(fn)]
	if fi == nil {
		return nil
	}
	out := make([]*types.Func, 0, len(fi.calls))
	for c := range fi.calls {
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// origin canonicalizes generic instantiations to their declaration.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// less orders functions by package path, then name, then position — a
// total order independent of map iteration.
func less(a, b *types.Func) bool {
	pa, pb := funcPkgPath(a), funcPkgPath(b)
	if pa != pb {
		return pa < pb
	}
	if a.FullName() != b.FullName() {
		return a.FullName() < b.FullName()
	}
	return a.Pos() < b.Pos()
}

func sortedVars(set map[*types.Var]bool) []*types.Var {
	out := make([]*types.Var, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		pa, pb := "", ""
		if a.Pkg() != nil {
			pa = a.Pkg().Path()
		}
		if b.Pkg() != nil {
			pb = b.Pkg().Path()
		}
		if pa != pb {
			return pa < pb
		}
		if a.Name() != b.Name() {
			return a.Name() < b.Name()
		}
		return a.Pos() < b.Pos()
	})
	return out
}

// Analyze builds the call graph and runs summary propagation to a fixed
// point over the given packages. Facts about functions whose bodies live
// outside pkgs (e.g. when linting a subtree) are unknown, so
// interprocedural rules are most precise over the whole module.
func Analyze(pkgs []*Package) *Analysis {
	a := &Analysis{
		Pkgs:           pkgs,
		byObj:          map[*types.Func]*funcInfo{},
		taintedFields:  map[*types.Var]string{},
		taintedGlobals: map[*types.Var]string{},
	}
	a.collectFuncs()
	a.collectHotMarks()
	a.propagate()
	a.propagateHot()
	a.propagateConc()
	return a
}

// collectFuncs indexes every declared function with a body and records
// its direct callees and go statements.
func (a *Analysis) collectFuncs() {
	for _, p := range a.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &funcInfo{
					obj:           obj,
					pkg:           p,
					decl:          fd,
					writesGlobals: map[*types.Var]bool{},
					calls:         map[*types.Func]bool{},
				}
				a.funcs = append(a.funcs, fi)
				a.byObj[origin(obj)] = fi
			}
		}
	}
	sort.SliceStable(a.funcs, func(i, j int) bool { return less(a.funcs[i].obj, a.funcs[j].obj) })

	for _, fi := range a.funcs {
		a.scanBody(fi)
		a.scanConc(fi)
	}
}

// scanBody fills fi's call edges, direct global writes, and goroutine
// spawns from one pass over the body.
func (a *Analysis) scanBody(fi *funcInfo) {
	isInit := fi.decl.Recv == nil && fi.decl.Name.Name == "init"
	p := fi.pkg
	ast.Inspect(fi.decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if cf := origin(calleeFunc(p.Info, n)); cf != nil {
				fi.calls[cf] = true
			}
		case *ast.GoStmt:
			sp := goSpawn{stmt: n}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				sp.lit = lit
				sp.captured = capturedVars(p.Info, lit)
			} else {
				sp.callee = origin(calleeFunc(p.Info, n.Call))
			}
			fi.spawns = append(fi.spawns, sp)
		case *ast.AssignStmt:
			if !isInit {
				for _, lhs := range n.Lhs {
					if v := pkgLevelVar(p.Info, lhs); v != nil {
						fi.writesGlobals[v] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if !isInit {
				if v := pkgLevelVar(p.Info, n.X); v != nil {
					fi.writesGlobals[v] = true
				}
			}
		}
		return true
	})
}

// pkgLevelVar resolves an assignment target to the package-level variable
// it mutates (following selectors and indexes to the base), or nil.
func pkgLevelVar(info *types.Info, lhs ast.Expr) *types.Var {
	v, ok := baseObject(info, lhs).(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return v
	}
	return nil
}

// capturedVars lists the function-local variables a closure mentions but
// does not declare: the loop/outer variables it captures by reference.
// Package-level variables are globalmut's domain and fields belong to
// their receiver, so both are excluded.
func capturedVars(info *types.Info, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		// Declared inside the closure (param or local) — not a capture.
		if lit.Pos() <= v.Pos() && v.Pos() < lit.End() {
			return true
		}
		// Package-level.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// propagate runs the fixed-point loop: local taint transfer plus
// transitive closure of global writes, repeated until no summary bit
// changes. Monotone over a finite lattice, so it terminates.
func (a *Analysis) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcs {
			if a.transferTaint(fi) {
				changed = true
			}
			for callee := range fi.calls {
				cf := a.byObj[callee]
				if cf == nil {
					continue
				}
				for v := range cf.writesGlobals {
					if !fi.writesGlobals[v] {
						fi.writesGlobals[v] = true
						changed = true
					}
				}
			}
		}
	}
}

// wallClockSources are the stdlib entry points that mint wall-clock-
// derived values. (time.Tick and tickers deliver values through channels
// the local transfer does not model; the nondet rule bans constructing
// them in simulation code in the first place.)
func wallClockSource(fn *types.Func) bool {
	if fn == nil || funcPkgPath(fn) != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// transferTaint recomputes one function's taint facts from its body and
// the current global state. Returns whether anything changed.
func (a *Analysis) transferTaint(fi *funcInfo) bool {
	tr := &taintTransfer{a: a, fi: fi, local: map[*types.Var]string{}}
	// Named results participate: `defer`d or naked returns flow through them.
	tr.run()
	changed := false
	if tr.returns != "" && !fi.returnsTaint {
		fi.returnsTaint = true
		fi.why = chain(fi.obj.Name(), tr.returns)
		changed = true
	}
	return changed || tr.changedGlobal
}

// chain prepends a hop to a provenance string.
func chain(hop, rest string) string {
	if rest == "" {
		return hop
	}
	return hop + " ← " + rest
}

// taintTransfer is the per-function flow-insensitive taint pass: it
// sweeps the body repeatedly, growing the tainted-variable set until
// stable, recording whether any return value, struct field, or global
// ends up tainted.
type taintTransfer struct {
	a  *Analysis
	fi *funcInfo
	// local maps tainted variables (locals, params, named results) to a
	// provenance chain.
	local         map[*types.Var]string
	returns       string // non-empty once a return value is tainted
	changedGlobal bool   // a field/global gained taint this pass
}

func (t *taintTransfer) run() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(t.fi.decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if t.assign(n.Lhs, n.Rhs) {
					changed = true
				}
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					lhs[i] = id
				}
				if len(n.Values) > 0 && t.assign(lhs, n.Values) {
					changed = true
				}
			case *ast.RangeStmt:
				if t.taintOf(n.X) != "" {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e != nil && t.mark(e, t.taintOf(n.X)) {
							changed = true
						}
					}
				}
			case *ast.CompositeLit:
				// Keyed struct literals stamp fields at construction:
				// Recorder{start: now} taints the field module-wide.
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					why := t.taintOf(kv.Value)
					if why == "" {
						continue
					}
					if v, ok := t.fi.pkg.Info.Uses[key].(*types.Var); ok && v.IsField() {
						if _, done := t.a.taintedFields[v]; !done {
							t.a.taintedFields[v] = why
							t.changedGlobal = true
							changed = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if why := t.taintOf(r); why != "" && t.returns == "" {
						t.returns = why
						changed = true
					}
				}
			case *ast.FuncDecl:
				// Naked returns: tainted named results count as returned.
				if n.Type.Results != nil {
					for _, fld := range n.Type.Results.List {
						for _, name := range fld.Names {
							if v, ok := t.fi.pkg.Info.Defs[name].(*types.Var); ok {
								if why := t.local[v]; why != "" && t.returns == "" {
									t.returns = why
									changed = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}

// assign applies one (possibly tuple) assignment's taint transfer.
func (t *taintTransfer) assign(lhs, rhs []ast.Expr) bool {
	changed := false
	if len(lhs) > 1 && len(rhs) == 1 {
		// x, y := call() — taint every target if the call is tainted.
		if why := t.taintOf(rhs[0]); why != "" {
			for _, l := range lhs {
				if t.mark(l, why) {
					changed = true
				}
			}
		}
		return changed
	}
	for i, l := range lhs {
		if i < len(rhs) {
			if why := t.taintOf(rhs[i]); why != "" && t.mark(l, why) {
				changed = true
			}
		}
	}
	return changed
}

// mark taints an assignment target: a local variable, a struct field
// (module-wide effect), or a package-level variable (module-wide effect).
func (t *taintTransfer) mark(lhs ast.Expr, why string) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v, ok := t.fi.pkg.Info.Defs[x].(*types.Var); ok {
			return t.markVar(v, why)
		}
		if v, ok := t.fi.pkg.Info.Uses[x].(*types.Var); ok {
			return t.markVar(v, why)
		}
	case *ast.SelectorExpr:
		if sel, ok := t.fi.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				if _, done := t.a.taintedFields[v]; !done {
					t.a.taintedFields[v] = why
					t.changedGlobal = true
					return true
				}
				return false
			}
		}
		// Qualified package-level var: pkg.V = tainted.
		if v, ok := t.fi.pkg.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			return t.markVar(v, why)
		}
	case *ast.IndexExpr:
		return t.mark(x.X, why)
	case *ast.StarExpr:
		return t.mark(x.X, why)
	}
	return false
}

func (t *taintTransfer) markVar(v *types.Var, why string) bool {
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		if _, done := t.a.taintedGlobals[v]; !done {
			t.a.taintedGlobals[v] = why
			t.changedGlobal = true
			return true
		}
		return false
	}
	if _, done := t.local[v]; !done {
		t.local[v] = why
		return true
	}
	return false
}

// taintOf reports the provenance chain of an expression's value, or ""
// when it is clean under the lattice.
func (t *taintTransfer) taintOf(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := t.fi.pkg.Info.ObjectOf(x).(*types.Var); ok {
			if why, ok := t.local[v]; ok {
				return why
			}
			if why, ok := t.a.taintedGlobals[v]; ok {
				return why
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := t.fi.pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				if why, ok := t.a.taintedFields[v]; ok {
					return why
				}
			}
			// field of a tainted struct value
			return t.taintOf(x.X)
		}
		if v, ok := t.fi.pkg.Info.Uses[x.Sel].(*types.Var); ok {
			if why, ok := t.a.taintedGlobals[v]; ok {
				return why
			}
		}
	case *ast.CallExpr:
		return t.taintOfCall(x)
	case *ast.BinaryExpr:
		if why := t.taintOf(x.X); why != "" {
			return why
		}
		return t.taintOf(x.Y)
	case *ast.UnaryExpr:
		return t.taintOf(x.X)
	case *ast.StarExpr:
		return t.taintOf(x.X)
	case *ast.IndexExpr:
		return t.taintOf(x.X)
	case *ast.TypeAssertExpr:
		return t.taintOf(x.X)
	}
	return ""
}

// taintOfCall handles the three tainting call shapes: a wall-clock
// source, a module function summarized as returning taint, a conversion
// or method that carries a tainted operand through.
func (t *taintTransfer) taintOfCall(call *ast.CallExpr) string {
	// Conversion: time.Duration(x), float64(d) — taint passes through.
	if tv, ok := t.fi.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return t.taintOf(call.Args[0])
		}
		return ""
	}
	fn := origin(calleeFunc(t.fi.pkg.Info, call))
	if wallClockSource(fn) {
		return "time." + fn.Name()
	}
	if fn != nil {
		if fi := t.a.byObj[fn]; fi != nil && fi.returnsTaint {
			return fi.why
		}
	}
	// Method on a tainted receiver (now.Unix(), d.Round(...)) or any
	// call with a tainted argument whose result we must assume derived
	// (now.Sub(start), min(d, cap)).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if why := t.taintOf(sel.X); why != "" {
			return why
		}
	}
	for _, arg := range call.Args {
		if why := t.taintOf(arg); why != "" {
			// Sinks that consume time without returning it stay clean:
			// a call returning no values cannot propagate.
			if sig, ok := t.fi.pkg.Info.Types[call.Fun].Type.(*types.Signature); ok && sig.Results().Len() == 0 {
				return ""
			}
			return why
		}
	}
	return ""
}
