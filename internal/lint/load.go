package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The loader is a miniature, dependency-free replacement for
// golang.org/x/tools/go/packages: it discovers every package directory
// under the module root, parses the non-test sources, and typechecks them
// with go/types. Imports inside the module are resolved recursively by
// the same loader; standard-library imports are compiled from GOROOT
// source via go/importer's "source" compiler (the gc export-data importer
// no longer works since binary stdlib .a files stopped shipping).

// The process shares one standard-library importer and one file set.
// The source importer type-checks each GOROOT package once and caches
// it, so every load after the first reuses that work instead of
// checking the standard library again. Every load positions its files
// in stdFset; a position renders the same file:line:col in any file
// set, and token.FileSet is safe for concurrent use. The source
// importer is not, so every call into it holds stdMu.
var (
	stdFset = token.NewFileSet()
	stdMu   sync.Mutex
	stdSrc  = importer.ForCompiler(stdFset, "source", nil).(types.ImporterFrom)
)

// stdImporter is the shared source importer behind stdMu.
type stdImporter struct{}

func (stdImporter) Import(path string) (*types.Package, error) {
	return stdImporter{}.ImportFrom(path, "", 0)
}

func (stdImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdSrc.ImportFrom(path, dir, mode)
}

type loader struct {
	root    string // absolute module root
	modPath string // module path from go.mod
	cache   map[string]*Package
	loading map[string]bool // import-cycle guard
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &loader{
		root:    abs,
		modPath: modPath,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if p, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Import implements types.Importer for the loader itself, so module
// packages can import their siblings during typechecking.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom routes module-internal paths to the source tree and
// everything else to the GOROOT source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.relOf(path); ok {
		p, err := l.loadRel(rel)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return stdImporter{}.ImportFrom(path, dir, mode)
}

// relOf maps an import path inside the module to its module-relative dir.
func (l *loader) relOf(importPath string) (string, bool) {
	if importPath == l.modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(importPath, l.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// loadRel parses and typechecks the package in one module-relative dir.
func (l *loader) loadRel(rel string) (*Package, error) {
	importPath := l.modPath
	if rel != "" {
		importPath += "/" + rel
	}
	if p, ok := l.cache[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	p, err := loadPackage(l, filepath.Join(l.root, filepath.FromSlash(rel)), importPath, rel)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = p
	return p, nil
}

// loadPackage parses the non-test .go files of one directory and
// typechecks them as a single package.
func loadPackage(imp types.Importer, dir, importPath, rel string) (*Package, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(stdFset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, stdFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	return &Package{
		Fset:  stdFset,
		Path:  importPath,
		Rel:   rel,
		Dir:   dir,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}, nil
}

// goSources lists the buildable non-test .go files of dir, sorted so
// parse order (and thus position order) is deterministic.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule loads every package of the module rooted at root whose
// module-relative dir matches one of the patterns. Patterns follow the
// go tool's shape: "./..." (everything), "./dir/..." (a subtree), or
// "./dir" (one package). No patterns means "./...".
func LoadModule(root string, patterns ...string) ([]*Package, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	rels, err := packageDirs(l.root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, rel := range rels {
		if !matchesAny(rel, patterns) {
			continue
		}
		p, err := l.loadRel(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// packageDirs walks the module tree and returns the module-relative dirs
// that contain Go packages, sorted. testdata, vendor, and hidden or
// underscore-prefixed directories are skipped, matching the go tool.
func packageDirs(root string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			rels = append(rels, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}

// matchesAny reports whether a module-relative dir matches any pattern.
func matchesAny(rel string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, pat := range patterns {
		if matchesPattern(rel, pat) {
			return true
		}
	}
	return false
}

// matchesPattern implements the "./...", "./dir/...", "./dir" shapes.
func matchesPattern(rel, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." || pat == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == prefix || strings.HasPrefix(rel, prefix+"/")
	}
	return rel == pat
}
