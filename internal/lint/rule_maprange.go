package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapRangeRule flags `for ... range m` over a map when the loop body
// emits something order-sensitive — appends to a slice, writes to a
// writer, or produces files/records — or adds floats up across
// iterations (`+=`, `-=` or `*=` into a float declared outside the
// loop, whose rounding depends on the order), because Go randomizes map
// iteration order per run, so the emitted sequence or the sum differs
// run to run. Iterations that only fill other maps are order-independent
// and stay legal, as is the collect-keys-then-sort idiom: an append
// whose target is later passed to a sort.* or slices.* call is
// recognized and not flagged.
type MapRangeRule struct{}

func (MapRangeRule) Name() string { return "maprange" }

func (MapRangeRule) Doc() string {
	return "flag map iteration that appends/writes/emits, or adds floats up, in randomized order; sort keys first"
}

// emittingMethods are method names whose call inside a map-range body
// sends data somewhere ordered (a writer, an encoder, a terminal).
var emittingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Print": true, "Printf": true, "Println": true,
	"Encode": true, "Flush": true,
}

func (MapRangeRule) Check(p *Package, r *Reporter) {
	inspectWithStack(p, func(n ast.Node, stack []ast.Node) {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(p.Info.TypeOf(rs.X)) {
			return
		}
		fn := enclosingFunc(stack)
		if why := emissionIn(p, rs, fn); why != "" {
			r.Reportf(rs.For, "map iteration order is randomized per run, but this loop %s; collect and sort the keys first", why)
		}
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// emissionIn scans a map-range body for order-sensitive output and
// returns a description of the first offender, or "".
func emissionIn(p *Package, rs *ast.RangeStmt, fn ast.Node) string {
	var why string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			if obj := floatAccumulator(p.Info, as); obj != nil && !declaredWithin(obj, rs) {
				why = "adds floats into " + obj.Name() + " in that order"
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := appendTarget(p.Info, call); obj != nil {
			// A target declared inside the loop body is per-iteration
			// local; a target that is sorted later in the same function
			// is the sanctioned sorted-keys idiom.
			if declaredWithin(obj, rs.Body) || sortedLater(p, fn, obj) {
				return true
			}
			why = "appends to " + obj.Name() + " in that order"
			return false
		}
		cf := calleeFunc(p.Info, call)
		if cf == nil {
			return true
		}
		if funcPkgPath(cf) == "fmt" && strings.HasPrefix(cf.Name(), "Fprint") {
			why = "writes records via fmt." + cf.Name()
			return false
		}
		if funcPkgPath(cf) == "os" && (cf.Name() == "WriteFile" || cf.Name() == "Create") {
			why = "emits files via os." + cf.Name()
			return false
		}
		if !isPkgLevel(cf) && emittingMethods[cf.Name()] {
			why = "writes output via " + cf.Name()
			return false
		}
		return true
	})
	return why
}

// appendTarget returns the object the builtin append grows, nil when call
// is not an append or the target is not a trackable variable.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	return baseObject(info, call.Args[0])
}

// floatAccumulator returns the variable that a `+=`, `-=` or `*=` of a
// floating-point value updates, nil for any other statement. The
// variable may be a per-iteration local; the caller checks where it is
// declared.
func floatAccumulator(info *types.Info, as *ast.AssignStmt) types.Object {
	if as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN && as.Tok != token.MUL_ASSIGN {
		return nil
	}
	t := info.TypeOf(as.Lhs[0])
	if t == nil {
		return nil
	}
	if b, ok := t.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 {
		return nil
	}
	return baseObject(info, as.Lhs[0])
}

// baseObject resolves the root variable of an lvalue-ish expression:
// keys -> keys, out.Rows -> out, m[k] -> m.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && node.Pos() <= obj.Pos() && obj.Pos() < node.End()
}

// sortedLater reports whether the enclosing function passes obj to any
// sort.* or slices.* call — the collect-then-sort idiom.
func sortedLater(p *Package, fn ast.Node, obj types.Object) bool {
	if fn == nil || obj == nil {
		return false
	}
	usesObj := refersTo(p.Info, map[types.Object]bool{obj: true})
	return anyNode(fn, nil, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		if pp := funcPkgPath(calleeFunc(p.Info, call)); pp != "sort" && pp != "slices" {
			return false
		}
		for _, arg := range call.Args {
			if anyNode(arg, nil, usesObj) {
				return true
			}
		}
		return false
	})
}
