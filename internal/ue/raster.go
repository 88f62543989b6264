package ue

import (
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/unit"
)

// raster is the route grid (geo.Grid) cut to the crowd's span, so that
// drawing 10⁵–10⁶ positions costs array lookups instead of route
// interpolation per attempt. The 250 m grid step is comfortably finer
// than anything the crowd can observe.
type raster struct {
	grid geo.Grid
}

func newRaster(route *geo.Route, span unit.Meters) raster {
	return raster{route.Grid().Prefix(int(span/geo.GridStep) + 2)}
}

func (r raster) idx(odo unit.Meters) int {
	i := int(odo / geo.GridStep)
	if i < 0 {
		return 0
	}
	if i >= r.grid.Len() {
		return r.grid.Len() - 1
	}
	return i
}

func (r raster) region(odo unit.Meters) geo.Region {
	return r.grid.Region(r.idx(odo))
}

func (r raster) timezone(odo unit.Meters) geo.Timezone {
	return r.grid.Timezone(r.idx(odo))
}
