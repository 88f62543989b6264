package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/nuwins/cellwheels"
)

// FuzzParseJobSpec feeds arbitrary submission bodies to ParseJobSpec. No
// input may panic, and an accepted spec must be a fixed point of its
// canonical form: re-marshalled and parsed again, it yields the same
// spec and the same job ID, which is what makes re-submission dedup. An
// accepted fleet or collect spec plans at most cellwheels.MaxFleetRuns
// runs of at most cellwheels.MaxReplicates replicates each.
func FuzzParseJobSpec(f *testing.F) {
	for _, seed := range []string{
		quickSpec(31),
		`{ "config":{"skip_static":true,"skip_passive":true,"seed":31,"limit_km":6,"skip_apps":true}, "kind":"campaign" }`,
		`{"kind":"campaign","csv":true,"config":{"seed":1,"limit_km":25,"skip_apps":true}}`,
		`{ "config":{"skip_apps":true,"seed":1,"limit_km":25}, "csv":true, "kind":"campaign" }`,
		`{"kind":"campaign","config":{"seed":2,"limit_km":25,"skip_apps":true}}`,
		`{"kind":"fleet","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"collect","fingerprint":"other","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"collect","scenario":` + fleetScenarioJSON + `}`,
		`{"kind":"sabotage"}`,
		`{}`,
		`{"kind":"campaign","config":{"seed":1},"sudo":true}`,
		`{"kind":"campaign"}`,
		`{"kind":"fleet"}`,
		`{"kind":"campaign","config":{"seed":1,"load_model":"psychic"}}`,
		`{"kind":"fleet","scenario":{"master_seed":1,"base":{"seed":0},"sweep":[{"field":"nope","values":[1]}]}}`,
		`{"kind":"fleet","scenario":{"master_seed":1,"archive_dir":"/tmp/x","base":{"seed":0}}}`,
	} {
		f.Add([]byte(seed))
	}
	// The scenario the daemon smoke test submits as fleet and collect jobs.
	scenario, err := os.ReadFile("../../testdata/fleet-sync-smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"kind":"fleet","scenario":` + string(scenario) + `}`))
	f.Add([]byte(`{"kind":"collect","scenario":` + string(scenario) + `}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, id, err := ParseJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		canonical, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, againID, err := ParseJobSpec(bytes.NewReader(canonical))
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", canonical, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Errorf("canonical form %s parses to %+v, want %+v", canonical, again, spec)
		}
		if againID != id {
			t.Errorf("canonical form %s has ID %s, want %s", canonical, againID, id)
		}
		if sc := spec.Scenario; sc != nil {
			runs := max(sc.Replicates, 1)
			for _, a := range sc.Sweep {
				runs *= len(a.Values)
			}
			if sc.Replicates > cellwheels.MaxReplicates || runs > cellwheels.MaxFleetRuns {
				t.Errorf("accepted a scenario of %d replicates and %d planned runs", sc.Replicates, runs)
			}
		}
	})
}
