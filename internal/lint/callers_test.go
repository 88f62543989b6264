package lint

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// exampleOnly names the exported functions whose one caller is a worked
// example. An Example lives in a test file, so the scan sees no caller,
// yet each name is the documented way to do what its Example shows.
var exampleOnly = map[string]bool{
	"core.Campaign.RunAndMerge": true, // ExampleStudy_Section, Example_edgeboost
	"core.TableKPICorrelation":  true, // Example_importcsv
	"dataset.DB.TestsWhere":     true, // Example_importcsv
	"dataset.ReadThroughputCSV": true, // Example_importcsv
	"dataset.ReadRTTCSV":        true, // Example_importcsv
	"dataset.ReadHandoverCSV":   true, // Example_importcsv
	"geo.Drive.State":           true, // Example_coveragemap
	"geo.Drive.Step":            true, // Example_coveragemap
}

// TestExportedNamesHaveCallers keeps the module's surface to what it
// uses: every exported function or method declared under internal/ is
// referenced by some non-test file of the module (the root facade,
// cmd/, bench/ and internal/ all count). A method that satisfies an
// interface declaring it is exempt, since its callers reach it through
// the interface, and so are the names in exampleOnly.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgs, _ := loadSelf(t)
	used := map[*types.Func]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var addInterfaces func(p *types.Package)
	addInterfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addInterfaces(imp)
		}
	}
	for _, p := range pkgs {
		addInterfaces(p.Pkg)
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		// Interface literals, such as a parameter's interface{ Render() string }.
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}

	var unused []string
	allowed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Rel, "internal/") {
			continue
		}
		for _, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() || used[fn] {
				continue
			}
			name := p.Pkg.Name() + "." + fn.Name()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				named, ok := rt.(*types.Named)
				if !ok || types.IsInterface(rt) || declaredByInterface(named, fn.Name(), ifaces) {
					continue
				}
				name = p.Pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
			}
			if exampleOnly[name] {
				allowed[name] = true
			} else {
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside tests; delete them or call them:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
	for name := range exampleOnly {
		if !allowed[name] {
			t.Errorf("exampleOnly lists %s, which is gone or has a caller outside tests", name)
		}
	}
}

// declaredByInterface reports whether recv, or a pointer to it,
// implements an interface that declares a method called name.
func declaredByInterface(recv *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			declares = declares || it.Method(i).Name() == name
		}
		if declares && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
			return true
		}
	}
	return false
}
