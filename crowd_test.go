package cellwheels

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// rawJSON wraps JSON literals as sweep axis values.
func rawJSON(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

// crowdConfig is the shared shape of the crowd identity tests: a short
// drive with a metro-scale population and a handful of measuring UEs.
func crowdConfig(workers int) Config {
	return Config{
		Seed:         31,
		LimitKm:      2,
		SkipApps:     true,
		SkipStatic:   true,
		CrowdSize:    100_000,
		CrowdSamples: 3,
		LoadModel:    LoadModelDemand,
		Workers:      workers,
	}
}

// TestCrowdWorkersByteIdentical pins the PR's headline invariant: a
// 10⁵-UE crowd campaign produces byte-identical datasets and reports for
// every worker count. Each lane owns its registry and every crowd draw is
// positional, so no cross-lane coordination exists to get wrong.
func TestCrowdWorkersByteIdentical(t *testing.T) {
	type outputs struct {
		dataset []byte
		report  string
		ookla   string
	}
	runWith := func(workers int) outputs {
		t.Helper()
		s, err := Run(crowdConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return outputs{dataset: buf.Bytes(), report: s.Report(), ookla: s.MeasuredOokla(0)}
	}
	serial := runWith(1)
	for _, workers := range []int{2, 4} {
		got := runWith(workers)
		if !bytes.Equal(serial.dataset, got.dataset) {
			t.Errorf("Workers:%d crowd dataset differs from Workers:1", workers)
		}
		if serial.report != got.report {
			t.Errorf("Workers:%d crowd report differs from Workers:1", workers)
		}
		if serial.ookla != got.ookla {
			t.Errorf("Workers:%d measured Ookla table differs from Workers:1", workers)
		}
	}
}

// TestLoadModelStandinIsDefault pins backward compatibility: naming the
// stand-in backend explicitly is byte-identical to leaving LoadModel
// empty, which is itself the seed campaign's historical output.
func TestLoadModelStandinIsDefault(t *testing.T) {
	jsonFor := func(model string) []byte {
		t.Helper()
		s, err := Run(Config{Seed: 9, LimitKm: 10, SkipApps: true, SkipStatic: true, LoadModel: model})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(jsonFor(""), jsonFor(LoadModelStandin)) {
		t.Error("LoadModel standin differs from the empty default")
	}
}

// TestDemandModelChangesLoad sanity-checks that the demand backend is
// actually wired through: a heavily loaded crowd must shift the handsets'
// measurements away from the stand-in's.
func TestDemandModelChangesLoad(t *testing.T) {
	run := func(model string, crowd int) string {
		t.Helper()
		s, err := Run(Config{Seed: 9, LimitKm: 10, SkipApps: true, SkipStatic: true,
			CrowdSize: crowd, CrowdSamples: 1, LoadModel: model})
		if err != nil {
			t.Fatal(err)
		}
		return s.Summary().String()
	}
	standin := run(LoadModelStandin, 50_000)
	demand := run(LoadModelDemand, 50_000)
	if standin == demand {
		t.Error("demand-driven load produced the same summary as the stand-in")
	}
}

// TestCrowdMeasuredOokla pins the measured Table 3 path: with a crowd
// enabled, MeasuredOokla summarizes the in-run crowd flows and renders a
// row per operator.
func TestCrowdMeasuredOokla(t *testing.T) {
	s, err := Run(Config{Seed: 17, LimitKm: 5, SkipApps: true, SkipStatic: true,
		CrowdSize: 20_000, CrowdSamples: 2, LoadModel: LoadModelDemand})
	if err != nil {
		t.Fatal(err)
	}
	out := s.MeasuredOokla(0)
	for _, want := range []string{"Verizon", "T-Mobile", "AT&T", "crowd DL"} {
		if !strings.Contains(out, want) {
			t.Errorf("measured Ookla table missing %q:\n%s", want, out)
		}
	}
}

// TestCrowdConfigValidation pins the facade's envelope checks.
func TestCrowdConfigValidation(t *testing.T) {
	cases := []Config{
		{Seed: 1, LoadModel: "bogus"},
		{Seed: 1, CrowdSize: -5},
		{Seed: 1, CrowdSize: 1<<20 + 1},
		{Seed: 1, CrowdSamples: -1},
	}
	for _, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted invalid config %+v", cfg)
		}
	}
}

// TestFleetCrowdSweepAxis pins the new config fields as fleet sweep axes:
// crowd_size and load_model patch cleanly through the JSON override path
// and every cell of the matrix completes.
func TestFleetCrowdSweepAxis(t *testing.T) {
	base := Config{LimitKm: 2, SkipApps: true, SkipStatic: true, SkipPassive: true, CrowdSamples: 1}
	res, err := RunFleet(FleetConfig{
		MasterSeed: 12,
		Replicates: 1,
		Base:       base,
		Sweep: []SweepAxis{
			{Field: "crowd_size", Values: rawJSON("0", "5000")},
			{Field: "load_model", Values: rawJSON(`"standin"`, `"demand"`)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs() != 4 || res.Failed() != 0 {
		t.Fatalf("fleet ran %d runs (%d failed), want 4 ok", res.Runs(), res.Failed())
	}
	if report := res.Report(); !strings.Contains(report, "crowd_size") {
		t.Error("fleet report does not mention the crowd_size axis")
	}
}

// TestFleetRejectsBadCrowdCell pins that facade validation reaches fleet
// cells: a sweep value outside the load-model envelope, or a crowd past
// ue.MaxSize, fails that run before any registry is built.
func TestFleetRejectsBadCrowdCell(t *testing.T) {
	for _, axis := range []SweepAxis{
		{Field: "load_model", Values: rawJSON(`"bogus"`)},
		{Field: "crowd_size", Values: rawJSON("1048577")},
	} {
		res, err := RunFleet(FleetConfig{
			MasterSeed: 12,
			Replicates: 1,
			Base:       Config{LimitKm: 2, SkipApps: true, SkipStatic: true, SkipPassive: true},
			Sweep:      []SweepAxis{axis},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 1 {
			t.Fatalf("fleet reported %d failures, want the %s cell to fail its run", res.Failed(), axis.Field)
		}
	}
}
