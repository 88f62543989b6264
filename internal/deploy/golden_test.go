package deploy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

// newMapGolden pins NewMap's output bit for bit: a sha256 over every
// fragment and every cell field of each operator's map on the default
// route, keyed "seed/operator". Floats enter as their IEEE-754 bits, so
// a one-ulp drift in any odometer, offset or load fails the test.
var newMapGolden = map[string]string{
	"1/V": "fbb67111658104befbbdbf857671193eb9569834dd714bd5ed1d839b84063b74",
	"1/T": "9ab6fc8f5f191097d277cc0eadd13e71266591ce9cc6d6db59e89c8de7b267c9",
	"1/A": "24f7f7d845b807cce4d8696fa70e803a17c73e3af62629674f7844a75b254390",
	"2/V": "269311b5b58364830bc0e4541e65520abfd38685734b322c4f96339797eb8c91",
	"2/T": "d5f5127a851686788e85e13fa6949bba6038185423f7b066e0e8c78102216f2b",
	"2/A": "09daf933602d57ff8bdc03a6da5e15207e541bb2cb76e230e96c62af6a8645f9",
	"7/V": "8acb696882d523987f8ad032515351c46af47c35f019b4360b04c2b3c829f9f1",
	"7/T": "79138c04a700efb0f465ffad14893ede054884624eac71282cf4f429346099fc",
	"7/A": "4b65cf23e80bd26dd91cc4a47d4175394c0e8667c4d89bc7562e33f7a6268b7e",
}

func TestNewMapGolden(t *testing.T) {
	route := geo.DefaultRoute()
	for _, seed := range []int64{1, 2, 7} {
		rng := simrand.New(seed)
		for _, op := range radio.Operators() {
			key := fmt.Sprintf("%d/%s", seed, op.Short())
			got := mapDigest(NewMap(op, route, rng))
			if want := newMapGolden[key]; got != want {
				t.Errorf("NewMap digest %s = %s, want %s", key, got, want)
			}
		}
	}
}

// mapDigest hashes a map's fragments and cells, technology by technology.
// IDs are length-prefixed, so adjacent ones cannot trade bytes unnoticed.
func mapDigest(m *Map) string {
	var b []byte
	putInt := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	putFloat := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	putInt(int64(m.Op))
	for _, t := range radio.Technologies() {
		frags := m.Fragments(t)
		putInt(int64(len(frags)))
		for _, f := range frags {
			putInt(int64(f.Tech))
			putFloat(float64(f.Start))
			putFloat(float64(f.End))
		}
		cells := m.cells[t]
		putInt(int64(len(cells)))
		for _, c := range cells {
			putInt(int64(len(c.ID)))
			b = append(b, c.ID...)
			putInt(int64(c.Op))
			putInt(int64(c.Tech))
			putInt(int64(c.Index))
			putFloat(float64(c.Odometer))
			putFloat(float64(c.Lateral))
			putFloat(c.LoadMean)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
