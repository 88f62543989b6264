package fleetsync

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
)

// FuzzDecodeArtifact feeds arbitrary bytes to DecodeArtifact, the one
// decoder a collector runs on bytes from the network. No input may
// panic or make it allocate more than a small multiple of the input,
// and an accepted artifact must be a fixed point of its canonical
// encoding: decoded, re-encoded and decoded again, it re-encodes to the
// same bytes — so a run has one digest whatever form it arrived in.
func FuzzDecodeArtifact(f *testing.F) {
	arts := []Artifact{
		bitExactArtifact(),
		{Record: fleet.RunRecord{Index: 5, Cell: `mode="b"`, Replicate: 2, Seed: 9, Status: fleet.RunFailed, Error: "injected run failure"}},
	}
	for i := 0; i < 3; i++ {
		spec := fleet.RunSpec{Index: i, Replicate: i, Seed: fleet.RunSeed(77, `mode="a"`, i)}
		res, err := testRunner(spec)
		if err != nil {
			f.Fatal(err)
		}
		arts = append(arts, Artifact{
			Record:  fleet.RunRecord{Index: i, Cell: `mode="a"`, Replicate: i, Seed: spec.Seed, Status: fleet.RunOK},
			Metrics: res.Metrics,
		})
	}
	for _, a := range arts {
		data, err := EncodeArtifact(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		``,
		`{}`,
		`{"schema":2}`,
		`{"SCHEMA":1,"record":{"index":-1},"metrics":null}`,
		`{"schema":1,"metrics":[{"name":"x","value":"nan"},{"name":"y","value":"-Infinity"},{"name":"z","value":"0x1p-2"}]}`,
		`{"schema":1,"metrics":[{"name":"x","value":"1"},{"name":"x","value":"2"}]}`,
		`{"schema":1,"record":{"cell":"\xff"},"metrics":[]}`,
		`{"schema":1,"metrics":[` + strings.Repeat(`{},`, 4096) + `{}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// encoding/json grows the metrics slice geometrically, so a list
		// of empty entries — 3 input bytes per 32-byte element — costs
		// up to about 65 bytes per input byte; the limit leaves headroom
		// over that and fails anything that grows faster than the input.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := DecodeArtifact(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 80*uint64(len(data))+64<<10; n > limit {
			t.Errorf("decoding %d bytes allocated %d, over %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		enc, err := EncodeArtifact(a)
		if err != nil {
			t.Fatalf("decoded artifact does not encode: %v", err)
		}
		again, err := DecodeArtifact(enc)
		if err != nil {
			t.Fatalf("canonical form %s rejected: %v", enc, err)
		}
		enc2, err := EncodeArtifact(again)
		if err != nil {
			t.Fatalf("re-decoded artifact does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("canonical encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
