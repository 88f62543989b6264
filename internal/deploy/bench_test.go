package deploy

import (
	"testing"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

// mapSink keeps the compiler from discarding the benchmarked builds.
var mapSink *Map

// BenchmarkNewMap measures one operator's deployment over the full
// 5,711 km route: the four coverage walks and the cell placement that
// every campaign repeats per operator, whatever its Limit.
func BenchmarkNewMap(b *testing.B) {
	route := geo.DefaultRoute()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapSink = NewMap(radio.Verizon, route, simrand.New(1))
	}
}
