package cellwheels

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// designIndex is what the repository's Go code declares: per package
// name, its top-level names and each type's methods and fields (as
// "Type.Member"); and every declared name, whatever its package.
type designIndex struct {
	decls map[string]map[string]bool
	all   map[string]bool
}

// indexDesignNames parses every Go file under root, outside testdata
// and dot directories. A package named main gets no qualifier: prose
// names a command by its path.
func indexDesignNames(root string) (*designIndex, error) {
	ix := &designIndex{decls: map[string]map[string]bool{}, all: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			pkg = ""
		}
		ix.addFile(pkg, f)
		return nil
	})
	return ix, err
}

func (ix *designIndex) addFile(pkg string, f *ast.File) {
	names := ix.decls[pkg]
	if names == nil {
		names = map[string]bool{}
		ix.decls[pkg] = names
	}
	add := func(owner, name string) {
		ix.all[name] = true
		if owner != "" {
			name = owner + "." + name
		}
		names[name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			owner := ""
			if d.Recv != nil {
				owner = recvTypeName(d.Recv.List[0].Type)
			}
			add(owner, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add("", s.Name.Name)
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							add(s.Name.Name, n.Name)
						}
						if len(field.Names) == 0 {
							add(s.Name.Name, recvTypeName(field.Type))
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add("", n.Name)
					}
				}
			}
		}
	}
}

// recvTypeName strips a receiver or embedded field type down to its
// type name: *T, T[P] and pkg.T all give T.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

var (
	// testName finds the names of tests, benchmarks, fuzz targets and
	// examples in prose; a bare "Test" or "Example" is a word, not a
	// name.
	testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*`)
	// codeSpan is one backquoted span of Markdown.
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// qualified is pkg.Name, pkg.Type.Member or pkg.(*Type).Member, not
	// preceded by a character that would make pkg part of a longer word
	// or path. Name may hold a * wildcard, as in dataset.Read*CSV.
	qualified = regexp.MustCompile(`(?:^|[^\w./-])([a-z][a-z0-9]*)\.(?:\(\*(\w+)\)\.(\w+)|([\w*]+)(?:\.(\w+))?)`)
	// notGo is a Name that is no Go identifier of this repository: the
	// extension of a file name such as dataset.json, or a snake_case
	// metric name such as ue.crowd_overhead_s.
	notGo = regexp.MustCompile(`^(?:go|json|txt|md|csv|drm|sh|sarif|log|mod|[a-z0-9]+(?:_[a-z0-9]+)+)$`)
)

// stale lists every name the document cites that the index does not
// declare, each as "DESIGN.md:<line>: <name>". A qualifier that is not
// one of the indexed packages, such as math or json, is not checked.
func (ix *designIndex) stale(doc string) []string {
	var out []string
	for i, line := range strings.Split(doc, "\n") {
		report := func(name string) { out = append(out, fmt.Sprintf("DESIGN.md:%d: %s", i+1, name)) }
		for _, name := range testName.FindAllString(line, -1) {
			if !ix.all[name] {
				report(name)
			}
		}
		for _, span := range codeSpan.FindAllString(line, -1) {
			for _, m := range qualified.FindAllStringSubmatch(span[1:len(span)-1], -1) {
				names := ix.decls[m[1]]
				if names == nil {
					continue
				}
				key, cited := m[4], m[1]+"."+m[4]
				switch {
				case m[2] != "":
					key, cited = m[2]+"."+m[3], m[1]+".(*"+m[2]+")."+m[3]
				case m[5] != "" && names[m[4]]:
					key, cited = m[4]+"."+m[5], cited+"."+m[5]
				case m[5] == "" && notGo.MatchString(m[4]):
					continue
				}
				if !names[key] && !(strings.Contains(key, "*") && matchAny(key, names)) {
					report(cited)
				}
			}
		}
	}
	return out
}

// matchAny reports whether a top-level name matches the pattern.
func matchAny(pattern string, names map[string]bool) bool {
	for name := range names {
		if ok, _ := path.Match(pattern, name); ok && !strings.Contains(name, ".") {
			return true
		}
	}
	return false
}

// TestDesignNames holds DESIGN.md to the code: every qualified Go name
// it cites in backquotes, for a package of this repository, and every
// test, benchmark, fuzz target and example it names must exist, so a
// rename or a deletion fails here instead of leaving stale prose.
func TestDesignNames(t *testing.T) {
	ix, err := indexDesignNames(".")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ix.stale(string(doc)) {
		t.Errorf("%s: no such name in the code", s)
	}
}

// TestDesignNamesChecker runs the checker on snippets, so that it
// cannot pass a document by accident: a stale name is reported with its
// line, method forms resolve, and names of other packages are ignored.
func TestDesignNamesChecker(t *testing.T) {
	ix, err := indexDesignNames(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		doc  string
		want []string
	}{
		{"intro\nthe lanes run in `core.runLanes`, not `core.noSuchName`.", []string{"DESIGN.md:2: core.noSuchName"}},
		{"`xcal.(*Recorder).ObserveDrive` and `xcal.Recorder.ObserveDrive`", nil},
		{"`xcal.(*Recorder).NoSuchMethod`", []string{"DESIGN.md:1: xcal.(*Recorder).NoSuchMethod"}},
		{"`logsync.AppLog.Start` is a field, `cellwheels.Config.Fingerprint` a method", nil},
		{"`math.Log`, `json.NewDecoder(…).Decode`, `dataset.json` and `internal/core/view.go`", nil},
		{"`dataset.Read*CSV` but not `dataset.Read*XML`", []string{"DESIGN.md:1: dataset.Read*XML"}},
		{"TestDesignNames and `ExampleStudy_Section` exist.\n\nTestNoSuch does not.", []string{"DESIGN.md:3: TestNoSuch"}},
	} {
		if got := ix.stale(tc.doc); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("stale(%q) = %q, want %q", tc.doc, got, tc.want)
		}
	}
}
