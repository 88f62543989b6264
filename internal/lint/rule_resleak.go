package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ResLeakRule flags acquired resources — files, sockets, listeners,
// pipes, HTTP response bodies — with a CFG path from the acquisition to
// a return that neither closes them nor hands them off. Leaked fds are
// the slowest-burning failure a daemon has: nothing breaks until the
// process hits its descriptor limit hours later. The analysis tracks
// each resource variable forward from its acquisition; any use of the
// variable ends the path as "handled" — a Close obviously, but also
// passing it to a callee, returning it, capturing it in a closure, or
// storing it somewhere — because after a use, ownership is no longer
// provably local. The deliberately narrow consequence: what the rule
// flags is the sharp pattern where a path reaches a return without the
// resource appearing AT ALL, i.e. the early-return leak. Returns that
// mention the acquisition's error variable are the error-handling exit
// for a failed acquisition and are exempt; a blank `_ = v` assignment is
// not a use (it is the compiler-silencing idiom, not ownership
// transfer); paths into panic or os.Exit die with the process.
type ResLeakRule struct{}

func (ResLeakRule) Name() string { return "resleak" }

func (ResLeakRule) Doc() string {
	return "flags acquired resources (files, sockets, listeners, pipes, HTTP response bodies) with a CFG path to a return that neither closes nor hands them off"
}

func (ResLeakRule) CheckModule(a *Analysis, report ReportFunc) {
	for _, fi := range a.funcs {
		if !underSim(fi.pkg.Rel) {
			continue
		}
		for _, unit := range funcUnits(fi.decl) {
			checkResourcePaths(a, fi, unit, report)
		}
	}
}

// resAcq is one tracked resource: the acquiring statement, the resource
// variable, and the error variable assigned alongside it (if any).
type resAcq struct {
	stmt   ast.Stmt
	v      types.Object
	errVar types.Object
	desc   string
}

// checkResourcePaths finds the acquisitions in one function-like unit
// and walks each forward through the CFG.
func checkResourcePaths(a *Analysis, fi *funcInfo, unit ast.Node, report ReportFunc) {
	body := bodyOf(unit)
	if body == nil {
		return
	}
	info := fi.pkg.Info
	var acqs []resAcq
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own unit
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, ok := resourceCall(origin(calleeFunc(info, call)))
		if !ok {
			return true
		}
		var errVar types.Object
		var vars []types.Object
		for _, lhs := range as.Lhs {
			id, isIdent := ast.Unparen(lhs).(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			if isErrorType(obj.Type()) {
				errVar = obj
				continue
			}
			vars = append(vars, obj)
		}
		for _, v := range vars {
			acqs = append(acqs, resAcq{stmt: as, v: v, errVar: errVar, desc: desc})
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
		if pos, kind := firstLeakPath(info, g, blk, idx, acq); kind != leakNone {
			line := fi.pkg.Fset.Position(pos).Line
			where := "the return at line"
			if kind == leakExit {
				where = "the function's end at line"
			}
			report(fi.pkg, acq.stmt.Pos(), "%s from %s is neither closed nor handed off on the path to %s %d", objName(acq.v), acq.desc, where, line)
		}
	}
}

const (
	leakNone = iota
	leakReturn
	leakExit
)

// firstLeakPath walks forward from the acquisition and returns the first
// path that reaches a return (or falls off the function's end) without
// the resource being used.
func firstLeakPath(info *types.Info, g *CFG, blk *cfgBlock, idx int, acq resAcq) (token.Pos, int) {
	leakPos, leakKind := token.NoPos, leakNone
	usesV := refersTo(info, map[types.Object]bool{acq.v: true})
	usesErr := refersTo(info, map[types.Object]bool{acq.errVar: true})
	g.walkForward(blk, idx+1, func(n ast.Node) pathStep {
		if n == acq.stmt {
			return pathEnd // looped back: the variable is reacquired here
		}
		// Any mention of v discharges ownership, except the blank `_ = v`
		// assignment, which exists precisely to fake a use.
		if as, ok := n.(*ast.AssignStmt); !(ok && blankAssign(as)) && anyNode(n, nil, usesV) {
			return pathEnd
		}
		// A STATEMENT touching the acquisition's error variable marks
		// the error-handling path (return err, lastErr = err, a log) —
		// the resource does not exist there. Condition EXPRESSIONS are
		// excluded: `if err != nil` is anchored in the block both
		// branches share, so counting it would exempt every path.
		if _, isStmt := n.(ast.Stmt); isStmt && acq.errVar != nil && anyNode(n, nil, usesErr) {
			return pathEnd
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			leakPos, leakKind = ret.Pos(), leakReturn
			return walkEnd
		}
		if terminatesProcess(info, n) {
			return pathEnd
		}
		return pathOn
	}, func(last ast.Node) pathStep {
		// Fell off the end of the unit: an implicit return.
		leakPos, leakKind = acq.stmt.End(), leakExit
		if last != nil {
			leakPos = last.End()
		}
		return walkEnd
	})
	return leakPos, leakKind
}

// blankAssign matches `_ = x` (and `_, _ = x, y`): all-blank targets
// with bare operands.
func blankAssign(as *ast.AssignStmt) bool {
	if as.Tok != token.ASSIGN {
		return false
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	for _, rhs := range as.Rhs {
		if _, ok := ast.Unparen(rhs).(*ast.Ident); !ok {
			return false
		}
	}
	return true
}

// terminatesProcess reports whether n unconditionally ends the process
// or goroutine: panic, os.Exit, log.Fatal*, runtime.Goexit. Paths into
// them cannot leak into a live process.
func terminatesProcess(info *types.Info, n ast.Node) bool {
	return anyNode(n, nil, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				return true
			}
		}
		fn := origin(calleeFunc(info, call))
		switch funcPkgPath(fn) {
		case "os":
			return fn.Name() == "Exit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		case "runtime":
			return fn.Name() == "Goexit"
		}
		return false
	})
}

// resourceCall classifies the stdlib acquisitions the rule tracks.
func resourceCall(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	recv, name := recvTypeName(fn), fn.Name()
	switch funcPkgPath(fn) {
	case "os":
		if recv == "" {
			switch name {
			case "Open", "OpenFile", "Create", "CreateTemp", "Pipe":
				return "os." + name, true
			}
		}
	case "net":
		if recv == "" {
			switch name {
			case "Listen", "ListenTCP", "ListenUnix", "ListenPacket", "ListenUDP",
				"Dial", "DialTimeout", "DialTCP", "DialUDP", "DialUnix", "FileListener", "FileConn":
				return "net." + name, true
			}
		}
	case "net/http":
		if recv == "Client" {
			switch name {
			case "Do", "Get", "Head", "Post", "PostForm":
				return "http.Client." + name, true
			}
		}
		if recv == "" {
			switch name {
			case "Get", "Head", "Post", "PostForm":
				return "http." + name, true
			}
		}
	}
	return "", false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// objName renders an object for diagnostics.
func objName(obj types.Object) string {
	if obj == nil {
		return "resource"
	}
	return obj.Name()
}
