package fleetsync

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"github.com/nuwins/cellwheels/internal/fleet"
)

// Artifact is one run's transferable record: the manifest row plus the
// flat metric map the fleet reduction folds. It is the unit of
// content-addressing — a run's identity on the wire is the sha256 of its
// canonical encoding.
type Artifact struct {
	Record  fleet.RunRecord
	Metrics fleet.Metrics
}

// artifactSchema versions the canonical encoding.
const artifactSchema = 1

// wireArtifact is the serialized layout. Metrics are a sorted list of
// (name, value-string) pairs rather than a JSON number map for two
// reasons: the order is canonical by construction (equal artifacts always
// produce equal bytes, hence equal digests), and the values survive the
// trip bit-exactly — strconv's shortest round-trip formatting represents
// every float64 including NaN, which JSON numbers cannot carry at all and
// a campaign's skipped-app metrics legitimately produce.
type wireArtifact struct {
	Schema  int             `json:"schema"`
	Record  fleet.RunRecord `json:"record"`
	Metrics []wireMetric    `json:"metrics"`
}

type wireMetric struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// EncodeArtifact renders a's canonical bytes. Encoding is deterministic:
// the same record and metrics always produce the same bytes and therefore
// the same digest, on every worker.
func EncodeArtifact(a Artifact) ([]byte, error) {
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	w := wireArtifact{Schema: artifactSchema, Record: a.Record, Metrics: make([]wireMetric, len(names))}
	for i, name := range names {
		w.Metrics[i] = wireMetric{
			Name:  name,
			Value: strconv.FormatFloat(a.Metrics[name], 'g', -1, 64),
		}
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("fleetsync: encode artifact: %w", err)
	}
	return data, nil
}

// DecodeArtifact parses canonical artifact bytes. Every metric value
// round-trips to the exact float64 the worker measured — the property the
// merged report's byte-identity rests on.
func DecodeArtifact(data []byte) (Artifact, error) {
	var w wireArtifact
	if err := json.Unmarshal(data, &w); err != nil {
		return Artifact{}, fmt.Errorf("fleetsync: decode artifact: %w", err)
	}
	if w.Schema != artifactSchema {
		return Artifact{}, fmt.Errorf("fleetsync: artifact schema %d, want %d", w.Schema, artifactSchema)
	}
	a := Artifact{Record: w.Record}
	if len(w.Metrics) > 0 {
		// No size hint: the map grows only with values that parse, so a
		// long list of junk entries costs no more than its slice.
		a.Metrics = make(fleet.Metrics)
		for _, m := range w.Metrics {
			v, err := strconv.ParseFloat(m.Value, 64)
			if err != nil {
				return Artifact{}, fmt.Errorf("fleetsync: artifact metric %q: bad value %q: %w", m.Name, m.Value, err)
			}
			if _, dup := a.Metrics[m.Name]; dup {
				return Artifact{}, fmt.Errorf("fleetsync: artifact metric %q repeated", m.Name)
			}
			a.Metrics[m.Name] = v
		}
	}
	return a, nil
}

// Digest names a blob: the lowercase hex sha256 of its bytes.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validDigest reports whether s is a well-formed blob name. Digests are
// used as file names under the store root, so anything else — including
// path traversal — is rejected before it reaches the filesystem.
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
