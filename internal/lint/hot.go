package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotness is the second interprocedural fact the engine computes, next to
// taint: is a function reachable from the simulator's per-tick loops? Two
// doc-comment directives define the frontier:
//
//	//lint:hotroot — reason     (reason optional)
//	//lint:cold — reason        (reason mandatory)
//
// A hotroot declares a per-tick entry point (the campaign lane's tick
// loop, the crowd registry's Advance, the RAN UE step). Hotness then
// propagates through the existing call graph to a fixed point: everything
// a hot function calls is hot, except functions marked cold. Cold is the
// amortization barrier — a function that runs once per test or per
// campaign rather than once per tick (startTest, finishTest) stops
// propagation, with a mandatory reason because, like //lint:allow, it
// weakens the analysis. Indirect calls (function values, interface
// methods) carry no edge, which makes stored callbacks like OnMeasure
// natural amortization boundaries too.
//
// The hot-path rules (hotalloc, hotbox, hotdefer) only look inside hot
// functions, so the cost of a finding is always explainable as "this runs
// every 50 ms" — and every finding carries the root chain that proves it.

// Directive verbs recognized in function doc comments.
const (
	hotrootVerb = "hotroot"
	coldVerb    = "cold"
)

// parseHotMark splits a //lint:hotroot or //lint:cold comment. ok is
// false when the comment is not one of the two hot-path verbs; errMsg is
// non-empty when it is one but malformed (cold without a reason).
func parseHotMark(text string) (verb, reason string, ok bool, errMsg string) {
	body, isLine := strings.CutPrefix(text, "//")
	if !isLine {
		return "", "", false, ""
	}
	body = strings.TrimSpace(body)
	for _, v := range []string{coldVerb, hotrootVerb} {
		rest, has := strings.CutPrefix(body, "lint:"+v)
		if !has || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		reason = strings.TrimSpace(rest)
		for _, sep := range []string{"—", "--", "-"} {
			if cut, found := strings.CutPrefix(reason, sep); found {
				reason = strings.TrimSpace(cut)
				break
			}
		}
		if v == coldVerb && reason == "" {
			return v, "", true, "lint:cold needs a reason: //lint:cold — reason (it stops hotness propagation)"
		}
		return v, reason, true, ""
	}
	return "", "", false, ""
}

// collectHotMarks reads each declared function's doc comment for hotroot
// and cold marks. Placement and well-formedness are enforced separately
// by collectDirectives, so a malformed mark is both ignored here and
// reported there.
func (a *Analysis) collectHotMarks() {
	for _, fi := range a.funcs {
		if fi.decl.Doc == nil {
			continue
		}
		for _, c := range fi.decl.Doc.List {
			verb, _, ok, errMsg := parseHotMark(c.Text)
			if !ok || errMsg != "" {
				continue
			}
			switch verb {
			case hotrootVerb:
				fi.hotRoot = true
			case coldVerb:
				fi.cold = true
			}
		}
	}
}

// propagateHot runs a breadth-first closure from the declared roots over
// the call graph. BFS keeps every provenance chain shortest-in-hops, and
// both the root list and each callee expansion are processed in the
// engine's sorted function order, so chains are deterministic. Cold
// functions neither become hot nor propagate. Monotone (hot bits only
// turn on), so one pass per frontier suffices.
func (a *Analysis) propagateHot() {
	var queue []*funcInfo
	for _, fi := range a.funcs {
		if fi.hotRoot && !fi.cold {
			fi.hot = true
			fi.hotWhy = shortFuncName(fi.obj)
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range a.Callees(fi.obj) {
			cf := a.byObj[callee]
			if cf == nil || cf.hot || cf.cold {
				continue
			}
			cf.hot = true
			cf.hotWhy = chain(shortFuncName(callee), fi.hotWhy)
			queue = append(queue, cf)
		}
	}
}

// shortFuncName renders a function for provenance chains: "Advance" for
// package-level functions, "Registry.Advance" for methods — short enough
// to chain, unambiguous enough to find.
func shortFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// loopDepthAt reports how many loops enclose pos inside fi, measured in
// the innermost containing function body (closures reset the count) via
// a lazily built, cached CFG.
func (a *Analysis) loopDepthAt(fi *funcInfo, pos token.Pos) int {
	g := a.cfgOf(innermostFuncNode(fi.decl, pos))
	if g == nil {
		return 0
	}
	return g.LoopDepthAt(pos)
}

// cfgOf returns the cached CFG for a function-like node (FuncDecl or
// FuncLit), building it on first use. Shared by the hot-path loop-depth
// queries and the path-sensitive rules (lockhold, resleak).
func (a *Analysis) cfgOf(fn ast.Node) *CFG {
	body := bodyOf(fn)
	if body == nil {
		return nil
	}
	if a.cfgs == nil {
		a.cfgs = map[ast.Node]*CFG{}
	}
	g := a.cfgs[fn]
	if g == nil {
		g = buildCFG(body)
		a.cfgs[fn] = g
	}
	return g
}
