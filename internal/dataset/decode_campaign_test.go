package dataset_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestDecodeCanonicalCampaigns checks that what campaigns write is
// encoding/json's bytes and takes the reflection-free path back to the
// encoding/json result: a
// 40 km paper-methodology campaign, and the 10⁵-UE crowd campaign of
// the root package's crowdConfig(2).
func TestDecodeCanonicalCampaigns(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"40km", core.Config{Seed: 1, Limit: 40 * unit.Kilometer}},
		{"crowd", core.Config{
			Seed: 31, Limit: 2 * unit.Kilometer, SkipApps: true, SkipStatic: true,
			CrowdSize: 100_000, CrowdSamples: 3, LoadModel: core.LoadModelDemand, Workers: 2,
		}},
	} {
		db, err := core.NewCampaign(tc.cfg).RunAndMerge()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := db.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := json.NewEncoder(&ref).Encode(db); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Errorf("%s: WriteJSON differs from encoding/json", tc.name)
		}
		got, ok := dataset.DecodeCanonical(buf.Bytes())
		if !ok {
			t.Errorf("%s: campaign output fell back to encoding/json", tc.name)
			continue
		}
		var want dataset.DB
		if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: canonical decode differs from encoding/json", tc.name)
		}
		if len(got.Throughput) == 0 || len(got.Passive) == 0 {
			t.Errorf("%s: %v: want throughput and passive rows", tc.name, got)
		}
	}
}
