package lint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSARIFShape validates the report against the SARIF 2.1.0 envelope
// shape CI scanners require: schema/version header, a tool driver with
// the rule index, and one result per diagnostic with a physical
// location. The document is round-tripped through a schemaless decode so
// the assertions check the serialized JSON, not our own structs.
func TestSARIFShape(t *testing.T) {
	diags := RunWorkers(loadFixturePkgsT(t, "units"), []Rule{UnitsRule{}}, 1)
	if len(diags) == 0 {
		t.Fatal("units fixture produced no diagnostics")
	}
	out, err := SARIFReport(diags, AllRules())
	if err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if got := doc["$schema"]; got != sarifSchema {
		t.Errorf("$schema = %v, want %v", got, sarifSchema)
	}
	if got := doc["version"]; got != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", got)
	}

	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one run", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "lintwheels" {
		t.Errorf("driver name = %v, want lintwheels", driver["name"])
	}
	rules := driver["rules"].([]any)
	if len(rules) != len(AllRules())+1 {
		t.Errorf("driver rules = %d entries, want %d (AllRules + directive)", len(rules), len(AllRules())+1)
	}
	for _, r := range rules {
		meta := r.(map[string]any)
		if meta["id"] == "" || meta["shortDescription"].(map[string]any)["text"] == "" {
			t.Errorf("rule meta missing id or shortDescription: %v", meta)
		}
	}

	results := run["results"].([]any)
	if len(results) != len(diags) {
		t.Fatalf("results = %d, want %d (one per diagnostic)", len(results), len(diags))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] != diags[0].Rule {
		t.Errorf("ruleId = %v, want %v", first["ruleId"], diags[0].Rule)
	}
	if first["level"] != "error" {
		t.Errorf("level = %v, want error", first["level"])
	}
	if first["message"].(map[string]any)["text"] != diags[0].Msg {
		t.Errorf("message.text = %v, want %v", first["message"], diags[0].Msg)
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri := loc["artifactLocation"].(map[string]any)["uri"]; uri != diags[0].Pos.Filename {
		t.Errorf("artifactLocation.uri = %v, want %v", uri, diags[0].Pos.Filename)
	}
	region := loc["region"].(map[string]any)
	if int(region["startLine"].(float64)) != diags[0].Pos.Line ||
		int(region["startColumn"].(float64)) != diags[0].Pos.Column {
		t.Errorf("region = %v, want %d:%d", region, diags[0].Pos.Line, diags[0].Pos.Column)
	}
}

// TestSARIFStable pins that the SARIF report is a pure function of the
// diagnostics — rendering twice gives identical bytes.
func TestSARIFStable(t *testing.T) {
	diags := RunWorkers(loadFixturePkgsT(t, "units"), []Rule{UnitsRule{}}, 1)
	s1, err := SARIFReport(diags, AllRules())
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := SARIFReport(diags, AllRules())
	if !bytes.Equal(s1, s2) {
		t.Error("SARIF output not stable across renders")
	}
}
