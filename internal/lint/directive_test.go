package lint

import (
	"strings"
	"testing"
)

func knownRules() map[string]bool {
	known := map[string]bool{}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	return known
}

func TestParseAllow(t *testing.T) {
	known := knownRules()
	cases := []struct {
		name        string
		text        string
		wantRules   string // comma-joined
		wantReason  string
		isDirective bool
		errContains string
	}{
		{
			name: "not a directive", text: "// plain comment",
		},
		{
			name: "em dash separator", text: "//lint:allow maprange — keys are a fixed enum",
			isDirective: true, wantRules: "maprange", wantReason: "keys are a fixed enum",
		},
		{
			name: "double dash separator", text: "//lint:allow nondet -- stderr timing only",
			isDirective: true, wantRules: "nondet", wantReason: "stderr timing only",
		},
		{
			name: "leading spaces after slashes", text: "//   lint:allow sortstable — already a total order",
			isDirective: true, wantRules: "sortstable", wantReason: "already a total order",
		},
		{
			name: "multiple rules one directive", text: "//lint:allow nondet,timetaint — stderr banner timing",
			isDirective: true, wantRules: "nondet,timetaint", wantReason: "stderr banner timing",
		},
		{
			name: "multiple rules with space after comma", text: "//lint:allow nondet, timetaint — stderr banner timing",
			isDirective: true, wantRules: "nondet,timetaint", wantReason: "stderr banner timing",
		},
		{
			name: "missing rule name", text: "//lint:allow",
			isDirective: true, errContains: "needs a rule name",
		},
		{
			name: "unknown rule name", text: "//lint:allow nosuchrule — reason",
			isDirective: true, errContains: "unknown rule nosuchrule",
		},
		{
			name: "unknown rule inside list", text: "//lint:allow nondet,bogus — reason",
			isDirective: true, errContains: "unknown rule bogus",
		},
		{
			name: "missing reason", text: "//lint:allow maprange",
			isDirective: true, errContains: "needs a reason",
		},
		{
			name: "separator but empty reason", text: "//lint:allow maprange —",
			isDirective: true, errContains: "needs a reason",
		},
		{
			name: "unknown verb", text: "//lint:disable maprange",
			isDirective: true, errContains: "unknown lint directive",
		},
		{
			name: "glued verb", text: "//lint:allowmaprange",
			isDirective: true, errContains: "unknown lint directive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules, reason, isDirective, errMsg := parseAllow(tc.text, known)
			if isDirective != tc.isDirective {
				t.Fatalf("isDirective = %v, want %v", isDirective, tc.isDirective)
			}
			if tc.errContains != "" {
				if !strings.Contains(errMsg, tc.errContains) {
					t.Fatalf("errMsg = %q, want substring %q", errMsg, tc.errContains)
				}
				return
			}
			if errMsg != "" {
				t.Fatalf("unexpected error: %q", errMsg)
			}
			if got := strings.Join(rules, ","); got != tc.wantRules || reason != tc.wantReason {
				t.Errorf("parsed (%q, %q), want (%q, %q)", got, reason, tc.wantRules, tc.wantReason)
			}
		})
	}
}

// TestDirectiveSuppression exercises the reach of a directive through the
// directive fixture: same line and line-above suppress; wrong rule,
// unknown rule, missing reason, and a directive two lines away do not.
func TestDirectiveSuppression(t *testing.T) {
	p := loadFixtureT(t, "directive")
	diags := RunWorkers([]*Package{p}, AllRules(), 1)

	byRule := map[string]int{}
	var lines []int
	for _, d := range diags {
		byRule[d.Rule]++
		if d.Rule == "nondet" {
			lines = append(lines, d.Pos.Line)
		}
	}
	// Six time.Now calls; the two properly-directed ones are suppressed.
	if byRule["nondet"] != 4 {
		t.Errorf("nondet findings = %d (%v), want 4: wrongRule, unknownRule, missingReason, unrelatedLine", byRule["nondet"], lines)
	}
	// Two malformed directives: unknown rule name and missing reason.
	if byRule[DirectiveRule] != 2 {
		t.Errorf("directive findings = %d, want 2 (unknown rule, missing reason)", byRule[DirectiveRule])
	}
}

// TestMalformedDirectiveNeverSuppresses pins the safety property: a
// directive that fails to parse leaves the underlying finding visible.
func TestMalformedDirectiveNeverSuppresses(t *testing.T) {
	p := loadFixtureT(t, "directive")
	diags := RunWorkers([]*Package{p}, AllRules(), 1)

	// Collect the lines carrying malformed directives; each must also
	// carry (or precede) a surviving nondet finding.
	malformed := map[int]bool{}
	for _, d := range diags {
		if d.Rule == DirectiveRule {
			malformed[d.Pos.Line] = true
		}
	}
	if len(malformed) == 0 {
		t.Fatal("fixture produced no malformed directives")
	}
	for line := range malformed {
		survived := false
		for _, d := range diags {
			if d.Rule == "nondet" && (d.Pos.Line == line || d.Pos.Line == line+1) {
				survived = true
			}
		}
		if !survived {
			t.Errorf("malformed directive on line %d suppressed its finding", line)
		}
	}
}
