package lint

import (
	"go/ast"
	"go/types"
)

// CtxFlowRule is a context taint analysis: a function handed a
// context.Context (or *http.Request, which carries one) has promised its
// caller it can be canceled, so every operation inside it that can block
// indefinitely must be reachable by that context. Taint seeds at the
// carrier parameters and grows flow-insensitively through assignments —
// ctx2 := context.WithTimeout(ctx, d), req := http.NewRequestWithContext
// (ctx, ...) — and a blocking site is clean when a tainted value flows
// into it: a select with a case on a tainted channel (<-ctx.Done()), a
// blocking call with a tainted argument or receiver. Everything else is
// a broken promise: the caller cancels, this function keeps waiting.
//
// The rule also carries one syntactic companion check with the same
// timeout-discipline rationale: an http.Server composite literal without
// ReadHeaderTimeout (or ReadTimeout), which lets one slow-header client
// hold a connection — and any graceful drain — open forever.
//
// Closures and go statements inside the function body are skipped: a
// spawned goroutine outliving the request is goleak's domain, not a
// context-flow violation at this site.
type CtxFlowRule struct{}

func (CtxFlowRule) Name() string { return "ctxflow" }

func (CtxFlowRule) Doc() string {
	return "flags blocking operations in context-bearing functions that the context cannot reach, and http.Server literals without ReadHeaderTimeout"
}

func (CtxFlowRule) CheckModule(a *Analysis, report ReportFunc) {
	for _, fi := range a.funcs {
		if !underSim(fi.pkg.Rel) {
			continue
		}
		if carriers := ctxParams(fi.pkg, fi.decl); len(carriers) > 0 {
			growTaint(fi.pkg.Info, fi.decl.Body, carriers)
			checkCtxSites(a, fi, refersTo(fi.pkg.Info, carriers), report)
		}
	}
	for _, p := range a.Pkgs {
		if underSim(p.Rel) {
			checkServerLiterals(p, report)
		}
	}
}

// ctxParams collects the declared carrier parameters: context.Context
// and *http.Request.
func ctxParams(p *Package, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	if decl.Type.Params == nil {
		return out
	}
	for _, fld := range decl.Type.Params.List {
		if !ctxCarrierType(p.Info.TypeOf(fld.Type)) {
			continue
		}
		for _, name := range fld.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// ctxCarrierType reports whether t is context.Context or *http.Request.
func ctxCarrierType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		n, ok := ptr.Elem().(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "net/http" && n.Obj().Name() == "Request"
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// growTaint extends the carriers set through assignments whose right
// side mentions a carrier, to a fixed point. Flow-insensitive and
// therefore over-approximate about WHAT is tainted — which makes the
// rule under-approximate about what it flags.
func growTaint(info *types.Info, body *ast.BlockStmt, carriers map[types.Object]bool) {
	tainted := refersTo(info, carriers)
	mark := func(lhs ast.Expr) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.ObjectOf(id)
		if obj == nil || carriers[obj] {
			return false
		}
		carriers[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.AssignStmt:
				if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
					if anyNode(n.Rhs[0], nil, tainted) {
						for _, l := range n.Lhs {
							changed = mark(l) || changed
						}
					}
					return true
				}
				for i, l := range n.Lhs {
					if i < len(n.Rhs) && anyNode(n.Rhs[i], nil, tainted) {
						changed = mark(l) || changed
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && anyNode(n.Values[i], nil, tainted) {
						changed = mark(name) || changed
					}
				}
			}
			return true
		})
	}
}

// checkCtxSites reports each blocking site of the declaration the
// context cannot reach: a select with no tainted comm clause, a send,
// receive, or range on an untainted channel, or a blocking call none of
// whose arguments, receiver included, is tainted.
func checkCtxSites(a *Analysis, fi *funcInfo, tainted func(ast.Node) bool, report ReportFunc) {
	name := fi.obj.Name()
	for _, s := range fi.concSites {
		switch n := s.node.(type) {
		case *ast.SelectStmt:
			if !anyCommTainted(n, tainted) {
				report(fi.pkg, n.Pos(), "select can block forever in %s, which receives a context; add a <-ctx.Done() case", name)
			}
		case *ast.SendStmt:
			if !anyNode(n.Chan, nil, tainted) {
				report(fi.pkg, n.Pos(), "channel send can block forever in %s, which receives a context; select on it together with <-ctx.Done()", name)
			}
		case *ast.UnaryExpr:
			if !anyNode(n.X, nil, tainted) {
				report(fi.pkg, n.Pos(), "channel receive can block forever in %s, which receives a context; select on it together with <-ctx.Done()", name)
			}
		case *ast.RangeStmt:
			if !anyNode(n.X, nil, tainted) {
				report(fi.pkg, n.Pos(), "range over a channel unrelated to the context in %s; the loop outlives a canceled caller", name)
			}
		case *ast.CallExpr:
			if desc, blocks := a.siteBlocks(s); blocks && !ctxReaches(n, tainted) {
				report(fi.pkg, n.Pos(), "blocking %s in %s does not receive the function's context", desc, name)
			}
		}
	}
}

// anyCommTainted reports whether one of the select's comm clauses
// mentions a tainted value, e.g. a <-ctx.Done() case.
func anyCommTainted(sel *ast.SelectStmt, tainted func(ast.Node) bool) bool {
	for _, c := range sel.Body.List {
		if comm := c.(*ast.CommClause).Comm; comm != nil && anyNode(comm, nil, tainted) {
			return true
		}
	}
	return false
}

// ctxReaches reports whether a tainted value flows into the call via an
// argument or the method receiver.
func ctxReaches(call *ast.CallExpr, tainted func(ast.Node) bool) bool {
	for _, arg := range call.Args {
		if anyNode(arg, nil, tainted) {
			return true
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return anyNode(sel.X, nil, tainted)
	}
	return false
}

// checkServerLiterals flags http.Server composite literals that set
// neither ReadHeaderTimeout nor ReadTimeout.
func checkServerLiterals(p *Package, report ReportFunc) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			named, ok := p.Info.TypeOf(lit).(*types.Named)
			if !ok || named.Obj().Pkg() == nil ||
				named.Obj().Pkg().Path() != "net/http" || named.Obj().Name() != "Server" {
				return true
			}
			for _, e := range lit.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					return true // positional literal names every field
				}
				if id, ok := kv.Key.(*ast.Ident); ok &&
					(id.Name == "ReadHeaderTimeout" || id.Name == "ReadTimeout") {
					return true
				}
			}
			report(p, lit.Pos(), "http.Server constructed without ReadHeaderTimeout: one slow-header client holds its connection — and any graceful drain — open forever")
			return true
		})
	}
}
