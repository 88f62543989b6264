// Package lint is a stdlib-only static-analysis framework guarding the
// repository's determinism invariant: a campaign must be a pure function
// of (Config, seed), byte-identical across runs, worker counts, and
// hosts. Nothing in the Go toolchain enforces that — a stray time.Now, a
// global math/rand draw, or an unsorted map iteration feeding a report
// all compile fine and silently break replayability. The rules here turn
// the invariant into a machine-checked property.
//
// The framework loads every package in the module with go/parser and
// typechecks it with go/types (see load.go), then runs two kinds of
// rules: PackageRules inspect one package at a time, ModuleRules ask
// transitive questions of the interprocedural engine (see analysis.go) —
// a module-wide call graph with per-function dataflow summaries computed
// by fixed-point propagation. Diagnostics are sorted by file and
// position, and per-package work is embarrassingly parallel with
// slot-addressed results, so the linter's own output is byte-identical
// for any worker count. Intentional violations are documented at the
// call site with a directive:
//
//	//lint:allow <rule>[,<rule>...] — reason
//
// (see directive.go). The cmd/lintwheels binary drives the whole thing
// and exits non-zero on findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, addressed by resolved source position.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the canonical "file:line:col: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Package is one loaded, typechecked package presented to rules.
type Package struct {
	Fset *token.FileSet
	// Path is the import path ("github.com/nuwins/cellwheels/internal/core").
	Path string
	// Rel is the module-relative directory with forward slashes; "" is the
	// module root. Rules use it for scoping (e.g. nondet applies under
	// internal/ and cmd/).
	Rel string
	// Dir is the absolute directory the files were read from.
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Rule is the common surface of every check: an identifier and a doc
// line. Concrete rules implement PackageRule, ModuleRule, or both.
type Rule interface {
	// Name is the short identifier printed in brackets and accepted by
	// //lint:allow directives.
	Name() string
	// Doc is a one-line description for documentation and -rules output.
	Doc() string
}

// PackageRule is a check that inspects one package in isolation.
type PackageRule interface {
	Rule
	// Check inspects one package and reports findings.
	Check(p *Package, r *Reporter)
}

// ReportFunc records a finding for a ModuleRule at a position inside p.
type ReportFunc func(p *Package, pos token.Pos, format string, args ...any)

// ModuleRule is a check that needs the interprocedural engine: the
// module-wide call graph and dataflow summaries of Analysis.
type ModuleRule interface {
	Rule
	// CheckModule inspects the whole analyzed module.
	CheckModule(a *Analysis, report ReportFunc)
}

// Reporter collects diagnostics for one (package, rule) pair.
type Reporter struct {
	fset *token.FileSet
	rule string
	out  *[]Diagnostic
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	*r.out = append(*r.out, Diagnostic{
		Pos:  r.fset.Position(pos),
		Rule: r.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// AllRules returns the full rule suite in documentation order.
func AllRules() []Rule {
	return []Rule{
		NondetRule{},
		SeededRandRule{},
		MapRangeRule{},
		UncheckedErrRule{},
		SortStableRule{},
		TimeTaintRule{},
		GlobalMutRule{},
		GoUnsyncRule{},
		UnitsRule{},
		HotAllocRule{},
		HotDeferRule{},
		HotBoxRule{},
		GoLeakRule{},
		CtxFlowRule{},
		LockHoldRule{},
		ResLeakRule{},
	}
}

// RuleNames reports the names AllRules answers to, plus the internal
// "directive" pseudo-rule used for malformed //lint: comments.
func RuleNames() []string {
	names := make([]string, 0, len(AllRules())+1)
	for _, r := range AllRules() {
		names = append(names, r.Name())
	}
	names = append(names, DirectiveRule)
	return names
}

// RunWorkers applies rules to every package, resolves //lint:allow
// directives, and returns the surviving diagnostics sorted by file,
// position, rule, and message. Per-package checks fan out over workers
// goroutines; their results are slot-addressed by package index and the
// interprocedural pass is single-threaded, so the output is byte-
// identical for every worker count — the same property the linter
// enforces on the simulation.
func RunWorkers(pkgs []*Package, rules []Rule, workers int) []Diagnostic {
	// Directives validate against the full suite, not the selected subset:
	// an //lint:allow naming a real rule must stay valid when the linter
	// runs with -rules restricting the pass.
	known := map[string]bool{}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	var pkgRules []PackageRule
	var modRules []ModuleRule
	for _, r := range rules {
		if pr, ok := r.(PackageRule); ok {
			pkgRules = append(pkgRules, pr)
		}
		if mr, ok := r.(ModuleRule); ok {
			modRules = append(modRules, mr)
		}
	}

	// Per-package pass: directives plus PackageRules, slot-addressed.
	perPkg := make([][]Diagnostic, len(pkgs))    // rule findings, suppressible
	malformed := make([][]Diagnostic, len(pkgs)) // broken directives, not suppressible
	allowed := make([]allowSet, len(pkgs))
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p := pkgs[i]
				allowed[i], malformed[i] = collectDirectives(p, known)
				for _, rule := range pkgRules {
					rule.Check(p, &Reporter{fset: p.Fset, rule: rule.Name(), out: &perPkg[i]})
				}
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	allows := allowSet{}
	for _, a := range allowed {
		allows.merge(a)
	}

	// Module pass: the interprocedural engine, deliberately sequential —
	// summaries are shared state and the pass is cheap next to typechecking.
	var raw []Diagnostic
	for i := range pkgs {
		raw = append(raw, perPkg[i]...)
	}
	if len(modRules) > 0 {
		a := Analyze(pkgs)
		for _, rule := range modRules {
			name := rule.Name()
			rule.CheckModule(a, func(p *Package, pos token.Pos, format string, args ...any) {
				raw = append(raw, Diagnostic{
					Pos:  p.Fset.Position(pos),
					Rule: name,
					Msg:  fmt.Sprintf(format, args...),
				})
			})
		}
	}

	var diags []Diagnostic
	for i := range pkgs {
		diags = append(diags, malformed[i]...)
	}
	for _, d := range raw {
		if !allows.suppresses(d) {
			diags = append(diags, d)
		}
	}
	Sort(diags)
	return diags
}

// Sort orders diagnostics by file, then position, then rule and message.
func Sort(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// inspectWithStack walks every file of p, calling visit with each node
// and the stack of its ancestors (outermost first, n last).
func inspectWithStack(p *Package, visit func(n ast.Node, stack []ast.Node)) {
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			visit(n, stack)
			return true
		})
	}
}

// enclosingFunc returns the innermost function body on the stack, or nil.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn
		case *ast.FuncLit:
			return fn
		}
	}
	return nil
}

// calleeFunc resolves the function a call ultimately invokes, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// anyNode is the package's one subtree query: it reports whether match
// holds for some node under root (root included), visiting in
// ast.Inspect order and stopping at the first hit. A node that fails
// match is descended into unless prune (nil prunes nothing) accepts it,
// so one visit can both answer for a subtree and keep the search out.
func anyNode(root ast.Node, prune, match func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		found = match(n)
		return !found && (prune == nil || !prune(n))
	})
	return found
}

// refersTo is the anyNode match for "mentions one of objs": an
// identifier that resolves to an object in the set.
func refersTo(info *types.Info, objs map[types.Object]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && objs[info.ObjectOf(id)]
	}
}

// funcPkgPath reports the defining package path of fn ("" for universe).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgLevel reports whether fn is a package-level function (no receiver).
func isPkgLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// underSim reports whether a module-relative dir is part of the simulation
// or its drivers: the module root facade, internal/*, and cmd/*. Examples
// and the fixture corpus are out of scope.
func underSim(rel string) bool {
	if rel == "" {
		return true
	}
	return strings.HasPrefix(rel, "internal/") || rel == "internal" ||
		strings.HasPrefix(rel, "cmd/") || rel == "cmd"
}
