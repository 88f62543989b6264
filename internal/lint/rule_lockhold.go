package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockHoldRule flags CFG paths that hold a sync.Mutex or sync.RWMutex
// across an operation that can block indefinitely. A critical section
// that parks on a channel, an HTTP round-trip, or a WaitGroup turns one
// slow peer into a pile-up: every other goroutine needing the lock — the
// whole API surface, in a daemon — queues behind it. Lock identity is
// the receiver expression's source form ("s.mu"), which is exactly the
// precision the repository's lock-per-struct idiom needs; a path is held
// from x.Lock() until a matching x.Unlock() (x.RUnlock() for RLock) on
// that path. A deferred unlock keeps the lock held to the function's
// exit, so everything after the defer is still a held region — the
// classic lock-then-defer-then-block wedge. A loop carries the lock
// around its back edge, so a receive above a Lock in the same loop body
// runs held from the second iteration on. Blocking comes from the shared
// walker (conc.go), transitively-blocking module callees included;
// sync.Cond.Wait is exempt because Wait releases the mutex while parked
// — the worker-pool idiom must pass clean.
type LockHoldRule struct{}

func (LockHoldRule) Name() string { return "lockhold" }

func (LockHoldRule) Doc() string {
	return "flags sync.Mutex/RWMutex critical sections with a CFG path through a blocking operation (channel op, HTTP round-trip, Wait) before the unlock"
}

func (LockHoldRule) CheckModule(a *Analysis, report ReportFunc) {
	for _, fi := range a.funcs {
		if !underSim(fi.pkg.Rel) {
			continue
		}
		for _, unit := range funcUnits(fi.decl) {
			checkLockPaths(a, fi, unit, report)
		}
	}
}

// lockAcq is one x.Lock()/x.RLock() statement.
type lockAcq struct {
	stmt  ast.Stmt
	key   string // receiver expression, e.g. "s.mu"
	rlock bool
}

// checkLockPaths walks forward from each lock acquisition in one
// function-like unit, reporting blocking sites reached while held.
func checkLockPaths(a *Analysis, fi *funcInfo, unit ast.Node, report ReportFunc) {
	body := bodyOf(unit)
	if body == nil {
		return
	}
	var acqs []lockAcq
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own unit
		}
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if key, rlock, ok := lockCall(fi.pkg.Info, es.X); ok {
			acqs = append(acqs, lockAcq{stmt: es, key: key, rlock: rlock})
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}
	g := a.cfgOf(unit)
	if g == nil {
		return
	}
	for _, acq := range acqs {
		blk, idx := g.locate(acq.stmt)
		if blk == nil {
			continue
		}
		line := fi.pkg.Fset.Position(acq.stmt.Pos()).Line
		reported := map[token.Pos]bool{}
		g.walkForward(blk, idx+1, func(n ast.Node) pathStep {
			if n == acq.stmt || releasesLock(fi.pkg.Info, n, acq) {
				return pathEnd
			}
			nodeSites(fi.pkg.Info, g, n, func(s blockSite) {
				desc, blocks := a.siteBlocks(s)
				if !blocks || s.kind == blockKindCondWait || reported[s.node.Pos()] {
					return
				}
				reported[s.node.Pos()] = true
				report(fi.pkg, s.node.Pos(), "%s (locked at line %d) is held across %s; release the lock before blocking", acq.key, line, desc)
			})
			return pathOn
		}, nil)
	}
}

// nodeSites visits the blocking sites of one CFG node. A select's comm
// clauses and a range's operand are anchored on their own, but they
// block as their statement, so the sites are reported there: a comm's
// channel operation is the select's, which parks only without a
// default, and a range over a channel parks on every iteration. Calls
// inside the anchored node are still sites of their own.
func nodeSites(info *types.Info, g *CFG, n ast.Node, visit func(blockSite)) {
	switch st := g.headers[n].(type) {
	case *ast.SelectStmt:
		if s, ok := selectSite(st); ok {
			visit(s)
		}
		walkBlocking(info, n, true, func(s blockSite) {
			if s.kind != blockKindChan {
				visit(s)
			}
		})
		return
	case *ast.RangeStmt:
		if s, ok := rangeSite(info, st); ok {
			visit(s)
		}
	}
	walkBlocking(info, n, true, visit)
}

// lockCall matches x.Lock() / x.RLock() on a sync.Mutex or sync.RWMutex
// and returns the lock's identity (the rendered receiver expression).
func lockCall(info *types.Info, e ast.Expr) (key string, rlock bool, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := origin(calleeFunc(info, call))
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", false, false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false, false
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return types.ExprString(sel.X), fn.Name() == "RLock", true
}

// releasesLock reports whether node n releases acq on this path: a
// non-deferred call to the matching Unlock on the same receiver
// expression. A DeferStmt never releases for path purposes — the unlock
// runs at function exit, after everything the walk still visits.
func releasesLock(info *types.Info, n ast.Node, acq lockAcq) bool {
	want := "Unlock"
	if acq.rlock {
		want = "RUnlock"
	}
	prune := func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return true
		}
		return false
	}
	return anyNode(n, prune, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := origin(calleeFunc(info, call))
		if fn == nil || funcPkgPath(fn) != "sync" || fn.Name() != want {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		return ok && types.ExprString(sel.X) == acq.key
	})
}
