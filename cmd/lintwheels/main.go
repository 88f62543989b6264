// Command lintwheels runs the repository's determinism & correctness
// linter (internal/lint) over the module: a stdlib-only static-analysis
// pass — per-package rules plus an interprocedural call-graph/dataflow
// engine — that keeps campaigns a pure function of (Config, seed).
//
// Usage:
//
//	lintwheels ./...                        # lint every package in the module
//	lintwheels ./internal/...               # lint a subtree (interprocedural
//	                                        # rules see only the subtree)
//	lintwheels -rules list                  # list the rule suite, sorted, and exit
//	lintwheels -rules hotalloc,hotdefer,hotbox ./...   # run a subset of rules
//	lintwheels -format sarif -o lint.sarif ./...
//
// Diagnostics print as "file:line:col: [rule] message", sorted by file
// and position; -format sarif emits a machine-readable SARIF 2.1.0
// report with the same ordering. Packages are checked on GOMAXPROCS
// goroutines, and the output is byte-identical for any count. The exit
// status is non-zero when anything is found. Intentional violations are
// silenced at the call site with "//lint:allow <rule>[,<rule>] — reason".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/nuwins/cellwheels/internal/atomicio"
	"github.com/nuwins/cellwheels/internal/lint"
)

func main() {
	var (
		ruleSpec = flag.String("rules", "", "comma-separated rule names to run (default all); \"list\" prints the suite and exits")
		format   = flag.String("format", "text", "output format: text or sarif")
		outPath  = flag.String("o", "", "write the report to this file instead of stdout")
	)
	flag.Parse()

	if *ruleSpec == "list" {
		rules := lint.AllRules()
		sort.Slice(rules, func(i, j int) bool { return rules[i].Name() < rules[j].Name() })
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name(), r.Doc())
		}
		return
	}
	rules, err := selectRules(*ruleSpec)
	if err != nil {
		fail(err)
	}

	root, err := findModuleRoot(".")
	if err != nil {
		fail(err)
	}
	pkgs, err := lint.LoadModule(root, flag.Args()...)
	if err != nil {
		fail(err)
	}
	diags := lint.RunWorkers(pkgs, rules, runtime.GOMAXPROCS(0))
	// Module-relative paths keep every output stable across checkouts.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	emit := func(out io.Writer) error {
		switch *format {
		case "text":
			for _, d := range diags {
				if _, err := fmt.Fprintln(out, d); err != nil {
					return err
				}
			}
			return nil
		case "sarif":
			rep, err := lint.SARIFReport(diags, rules)
			if err != nil {
				return err
			}
			_, err = out.Write(rep)
			return err
		default:
			return fmt.Errorf("unknown -format %q (want text or sarif)", *format)
		}
	}
	if *outPath != "" {
		// Atomic install: a failed render or write never leaves a
		// truncated report where CI expects a complete artifact.
		if err := atomicio.WriteFile(*outPath, 0o644, emit); err != nil {
			fail(err)
		}
	} else if err := emit(os.Stdout); err != nil {
		fail(err)
	}

	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lintwheels: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// selectRules resolves the -rules flag: empty means the full suite, and
// a comma-separated list picks named rules, preserving suite order so the
// output (and any SARIF rule index) stays stable regardless of how the
// user spells the list.
func selectRules(spec string) ([]lint.Rule, error) {
	all := lint.AllRules()
	if spec == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		want[name] = true
	}
	var rules []lint.Rule
	for _, r := range all {
		if want[r.Name()] {
			rules = append(rules, r)
			delete(want, r.Name())
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown rule(s) %s; run -rules list for the suite", strings.Join(unknown, ", "))
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("-rules %q selects no rules; run -rules list for the suite", spec)
	}
	return rules, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lintwheels:", err)
	os.Exit(2)
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
