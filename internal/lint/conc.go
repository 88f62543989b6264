package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the concurrency half of the interprocedural engine: two
// per-function summary bits — "blocks" (executing this function can park
// its goroutine indefinitely) and "receivesCancel" (the function observes
// a cancellation or join signal) — plus the blocking lattice that defines
// them. One walker, walkBlocking, is the only code that decides which
// node can park a goroutine; the summaries and all four liveness rules
// read its sites, each filtering by kind:
//
//	goleak   — the summaries (scanConc, litConc): every site but module
//	           callees, whose blocking arrives by propagation; a `go`
//	           spawn leaks when it blocks && !receivesCancel
//	ctxflow  — the declaration's stored sites, clean when the site's
//	           channel, comm clause, or call arguments carry the context
//	lockhold — walkBlocking per CFG node on a path holding a
//	           sync.(RW)Mutex, minus Cond.Wait, which releases the lock
//	resleak  — no blocking sites; it shares lockhold's forward path walk
//	           (CFG.walkForward in cfg.go) from an acquisition to an exit
//
// The blocking lattice is deliberately small and deep-rooted: channel
// operations (send, receive, range, select without default), HTTP round
// trips and serves, net.Listener.Accept and net.Dial, sync.WaitGroup.Wait
// and sync.Cond.Wait, time.Sleep. Mutex.Lock is deliberately NOT in it —
// treating every lock as blocking would make nearly every function in a
// concurrent package "blocking" and drown lockhold in its own cascade;
// lock-ordering hazards are out of scope. File and pipe I/O are excluded
// for the same reason: they complete, eventually, without a peer.
//
// Both bits exclude nested closures and go statements: a closure merely
// defined (or spawned) inside f does not block f. Spawned closures get
// their facts computed on demand by litConc for goleak. Propagation is
// the engine's usual monotone fixed point over the call graph, with the
// same determinism contract: callees in source order, provenance chains
// built innermost-first.

// Blocking-site kinds. Cond.Wait is separated because it atomically
// releases its mutex while parked: it still blocks (goleak, ctxflow) but
// is not a lock-held hazard (lockhold skips it). A callee site is any
// other resolved call: it blocks exactly when the callee's module summary
// does, which only the finished analysis knows (siteBlocks).
const (
	blockKindChan = iota
	blockKindCall
	blockKindCondWait
	blockKindCallee
)

// blockSite is one node that can park a goroutine: a select without
// default, a send or receive outside a select's comm clause, a range over
// a channel, or a call.
type blockSite struct {
	node ast.Node
	desc string      // empty for callee sites
	kind int         // blockKind*
	fn   *types.Func // the resolved callee of a call site
}

// scanConc stores fi's sites and cancel observation, and seeds the blocks
// bit from its first site that blocks by itself.
func (a *Analysis) scanConc(fi *funcInfo) {
	fi.receivesCancel = walkBlocking(fi.pkg.Info, fi.decl.Body, true, func(s blockSite) {
		fi.concSites = append(fi.concSites, s)
	})
	fi.blocksWhy, fi.blocks = directBlock(fi.concSites)
}

// directBlock reports the first site that blocks without consulting a
// summary, i.e. the first that is not a callee site.
func directBlock(sites []blockSite) (why string, ok bool) {
	for _, s := range sites {
		if s.kind != blockKindCallee {
			return s.desc, true
		}
	}
	return "", false
}

// propagateConc closes blocks/receivesCancel over the call graph.
// Monotone over a finite lattice, so it terminates; callees are visited
// in source order so provenance chains are deterministic.
func (a *Analysis) propagateConc() {
	for changed := true; changed; {
		changed = false
		for _, fi := range a.funcs {
			for _, s := range fi.concSites {
				cf := a.calleeOf(s)
				if cf == nil {
					continue
				}
				if cf.blocks && !fi.blocks {
					fi.blocks = true
					fi.blocksWhy = chain(shortFuncName(s.fn), cf.blocksWhy)
					changed = true
				}
				if cf.receivesCancel && !fi.receivesCancel {
					fi.receivesCancel = true
					changed = true
				}
			}
		}
	}
}

// calleeOf returns the summary behind a callee site, or nil when the site
// is not a call to an analyzed module function.
func (a *Analysis) calleeOf(s blockSite) *funcInfo {
	if s.kind != blockKindCallee {
		return nil
	}
	return a.byObj[s.fn]
}

// siteBlocks resolves a site against the finished summaries: whether it
// blocks, and its description. Callee sites block through their summary
// and name it with its provenance chain.
func (a *Analysis) siteBlocks(s blockSite) (desc string, ok bool) {
	if s.kind != blockKindCallee {
		return s.desc, true
	}
	cf := a.byObj[s.fn]
	if cf == nil || !cf.blocks {
		return "", false
	}
	return "call to " + shortFuncName(s.fn) + " (" + cf.blocksWhy + ")", true
}

// Blocking exposes the blocks summary bit and its provenance (tests).
func (a *Analysis) Blocking(fn *types.Func) (bool, string) {
	fi := a.byObj[origin(fn)]
	if fi == nil {
		return false, ""
	}
	return fi.blocks, fi.blocksWhy
}

// ReceivesCancel exposes the cancel-observation summary bit (tests).
func (a *Analysis) ReceivesCancel(fn *types.Func) bool {
	fi := a.byObj[origin(fn)]
	return fi != nil && fi.receivesCancel
}

// litConc computes a spawned closure's facts on demand: its own subtree
// (nested closures included — they usually run via defer — but nested
// spawns excluded) plus its resolved callees' summaries.
func (a *Analysis) litConc(info *types.Info, lit *ast.FuncLit) (blocks bool, why string, cancel bool) {
	var sites []blockSite
	cancel = walkBlocking(info, lit.Body, false, func(s blockSite) { sites = append(sites, s) })
	why, blocks = directBlock(sites)
	for _, s := range sites {
		cf := a.calleeOf(s)
		if cf == nil {
			continue
		}
		if cf.blocks && !blocks {
			blocks, why = true, chain(shortFuncName(s.fn), cf.blocksWhy)
		}
		cancel = cancel || cf.receivesCancel
	}
	return blocks, why, cancel
}

// walkBlocking is the blocking-site walker: it visits, in source order,
// every site under root that can park a goroutine, and every resolved
// call as a site of its own kind. It reports whether root observes a
// cancellation or join signal. skipLits excludes nested closures (true
// for declared functions and CFG nodes; false when root is a spawned
// closure's body, whose nested non-spawned closures do run on its
// goroutine). Go statements are always excluded: the spawned work does
// not block the spawner. Channel operations that are a select's comm
// clause belong to the select and are not reported on their own.
func walkBlocking(info *types.Info, root ast.Node, skipLits bool, visit func(blockSite)) (cancel bool) {
	var comm []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return !skipLits
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					cancel = true
					comm = append(comm, cc.Comm)
				}
			}
			if s, ok := selectSite(n); ok {
				visit(s)
			}
		case *ast.SendStmt:
			cancel = true
			if !inComm(comm, n) {
				visit(blockSite{node: n, desc: "channel send", kind: blockKindChan})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				cancel = true
				if !inComm(comm, n) {
					visit(blockSite{node: n, desc: "channel receive", kind: blockKindChan})
				}
			}
		case *ast.RangeStmt:
			if s, ok := rangeSite(info, n); ok {
				cancel = true
				visit(s)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					cancel = true
				}
			}
			fn := origin(calleeFunc(info, n))
			if fn == nil {
				break
			}
			cancel = cancel || cancelCall(fn)
			desc, kind, ok := blockingCall(fn)
			if !ok {
				kind = blockKindCallee
			}
			visit(blockSite{node: n, desc: desc, kind: kind, fn: fn})
		}
		return true
	})
	return cancel
}

// selectSite is a select's own blocking site: it parks only when it has
// no default.
func selectSite(n *ast.SelectStmt) (blockSite, bool) {
	for _, c := range n.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return blockSite{}, false
		}
	}
	return blockSite{node: n, desc: "select without default", kind: blockKindChan}, true
}

// rangeSite is a range statement's own blocking site: a range over a
// channel parks on every iteration.
func rangeSite(info *types.Info, n *ast.RangeStmt) (blockSite, bool) {
	if _, ok := typeUnder(info.TypeOf(n.X)).(*types.Chan); !ok {
		return blockSite{}, false
	}
	return blockSite{node: n, desc: "range over channel", kind: blockKindChan}, true
}

// inComm reports whether n lies inside one of the comm clauses seen so
// far.
func inComm(comm []ast.Node, n ast.Node) bool {
	for _, c := range comm {
		if c.Pos() <= n.Pos() && n.Pos() < c.End() {
			return true
		}
	}
	return false
}

// typeUnder is Underlying tolerant of nil.
func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// blockingCall classifies the stdlib entry points that can park a
// goroutine indefinitely — the call half of the blocking lattice.
func blockingCall(fn *types.Func) (desc string, kind int, ok bool) {
	recv, name := recvTypeName(fn), fn.Name()
	switch funcPkgPath(fn) {
	case "net/http":
		switch recv {
		case "Client":
			switch name {
			case "Do", "Get", "Head", "Post", "PostForm":
				return "HTTP round-trip http.Client." + name, blockKindCall, true
			}
		case "Transport", "RoundTripper":
			if name == "RoundTrip" {
				return "HTTP round-trip http." + recv + ".RoundTrip", blockKindCall, true
			}
		case "Server":
			switch name {
			case "Serve", "ServeTLS", "ListenAndServe", "ListenAndServeTLS", "Shutdown":
				return "http.Server." + name, blockKindCall, true
			}
		case "":
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return "HTTP round-trip http." + name, blockKindCall, true
			case "Serve", "ServeTLS", "ListenAndServe", "ListenAndServeTLS":
				return "http." + name, blockKindCall, true
			}
		}
	case "net":
		if name == "Accept" && strings.HasSuffix(recv, "Listener") {
			return "net." + recv + ".Accept", blockKindCall, true
		}
		if recv == "" && strings.HasPrefix(name, "Dial") {
			return "net." + name, blockKindCall, true
		}
	case "sync":
		if recv == "WaitGroup" && name == "Wait" {
			return "sync.WaitGroup.Wait", blockKindCall, true
		}
		if recv == "Cond" && name == "Wait" {
			return "sync.Cond.Wait", blockKindCondWait, true
		}
	case "time":
		if recv == "" && name == "Sleep" {
			return "time.Sleep", blockKindCall, true
		}
	}
	return "", 0, false
}

// cancelCall classifies the stdlib calls that observe a cancellation or
// join signal: waiting on (or arming) a WaitGroup or Cond, and reaching
// for ctx.Done — the signals goleak accepts as "someone can stop or
// reap this goroutine".
func cancelCall(fn *types.Func) bool {
	recv, name := recvTypeName(fn), fn.Name()
	switch funcPkgPath(fn) {
	case "sync":
		return (recv == "WaitGroup" && (name == "Wait" || name == "Done")) ||
			(recv == "Cond" && name == "Wait")
	case "context":
		return recv == "Context" && name == "Done"
	}
	return false
}

// recvTypeName reports the named receiver type of a method ("" for
// package-level functions), following pointer receivers. Interface
// methods resolve too: net.Listener.Accept has receiver type Listener.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// cancelCarrier reports whether values of t can carry a cancellation or
// join signal into a goroutine: channels, context.Context,
// sync.WaitGroup, sync.Cond, and pointers to them.
func cancelCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return cancelCarrier(p.Elem())
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() {
	case "sync":
		return n.Obj().Name() == "WaitGroup" || n.Obj().Name() == "Cond"
	case "context":
		return n.Obj().Name() == "Context"
	}
	return false
}

// funcUnits returns the function-like bodies declared in decl — the decl
// itself plus every closure, in source order. The path-sensitive rules
// analyze each unit against its own CFG, because a closure's paths end
// at the closure's return, not its definer's.
func funcUnits(decl *ast.FuncDecl) []ast.Node {
	units := []ast.Node{decl}
	ast.Inspect(decl, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			units = append(units, lit)
		}
		return true
	})
	return units
}
