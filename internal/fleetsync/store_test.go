package fleetsync

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
)

// bitExactArtifact carries the float values a lossy encoding would
// mangle: non-terminating binary fractions, NaN, -Inf and -0.
func bitExactArtifact() Artifact {
	return Artifact{
		Record: fleet.RunRecord{
			Index: 3, Cell: `mode="b"`, Replicate: 1, Seed: 12345, Status: fleet.RunOK,
		},
		Metrics: fleet.Metrics{
			"thr":     1.0 / 3.0,
			"rtt":     math.Nextafter(2.5, 3),
			"nan":     math.NaN(),
			"neginf":  math.Inf(-1),
			"negzero": math.Copysign(0, -1),
		},
	}
}

func TestArtifactRoundTripIsBitExact(t *testing.T) {
	a := bitExactArtifact()
	data, err := EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Record != a.Record {
		t.Errorf("record round trip: %+v != %+v", got.Record, a.Record)
	}
	for name, want := range a.Metrics {
		gv, ok := got.Metrics[name]
		if !ok {
			t.Errorf("metric %q lost", name)
			continue
		}
		if math.Float64bits(gv) != math.Float64bits(want) {
			t.Errorf("metric %q = %x bits, want %x — not bit-exact", name, math.Float64bits(gv), math.Float64bits(want))
		}
	}
	// Canonical: encoding twice (and after a round trip) gives the same
	// bytes, hence the same digest.
	again, err := EncodeArtifact(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("encoding is not canonical:\n%s\n%s", data, again)
	}
}

func TestStorePutGetVerifies(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"hello":"world"}`)
	d := Digest(data)
	if err := s.Put(d, data); err != nil {
		t.Fatal(err)
	}
	if !s.Has(d) {
		t.Fatal("blob missing after Put")
	}
	got, err := s.Get(d)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Wrong digest for the content: never stored.
	if err := s.Put(Digest([]byte("other")), data); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("Put with wrong digest: %v, want ErrDigestMismatch", err)
	}
	// On-disk corruption surfaces on Get.
	if err := os.WriteFile(filepath.Join(s.Root(), "blobs", d), []byte("corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("Get of corrupted blob: %v, want ErrDigestMismatch", err)
	}
}

func TestValidDigest(t *testing.T) {
	good := Digest([]byte("x"))
	if !validDigest(good) {
		t.Errorf("real digest rejected: %s", good)
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), "../../etc/passwd", strings.Repeat("A", 64)} {
		if validDigest(bad) {
			t.Errorf("bad digest accepted: %q", bad)
		}
	}
}
