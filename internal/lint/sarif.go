package lint

import (
	"encoding/json"
)

// SARIF 2.1.0 output, shaped for CI code-scanning upload. Only the
// static subset the spec requires is emitted — tool driver with the rule
// index, one result per diagnostic with a physical location — and every
// slice is built in the already-sorted diagnostic order, so the report
// is byte-identical across runs and worker counts like every other
// output of this package.

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string          `json:"name"`
	InformationURI string          `json:"informationUri"`
	Rules          []sarifRuleMeta `json:"rules"`
}

type sarifRuleMeta struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// SARIFReport renders diagnostics as a SARIF 2.1.0 log. Diagnostics are
// expected pre-sorted (Run returns them that way) with file names
// already relativized by the caller; rules supplies the driver's rule
// index, listed in the given order plus the directive pseudo-rule.
func SARIFReport(diags []Diagnostic, rules []Rule) ([]byte, error) {
	metas := make([]sarifRuleMeta, 0, len(rules)+1)
	for _, r := range rules {
		metas = append(metas, sarifRuleMeta{ID: r.Name(), ShortDescription: sarifText{Text: r.Doc()}})
	}
	metas = append(metas, sarifRuleMeta{
		ID:               DirectiveRule,
		ShortDescription: sarifText{Text: "malformed //lint: directive; a broken opt-out must never silently disable a check"},
	})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.Pos.Filename},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: sarifVersion,
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:           "lintwheels",
				InformationURI: "https://github.com/nuwins/cellwheels",
				Rules:          metas,
			}},
			Results: results,
		}},
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
