package core

import (
	"time"

	"github.com/nuwins/cellwheels/internal/cloud"
	"github.com/nuwins/cellwheels/internal/geo"
)

// wireSites are the cloud sites whose wireline RTT the drive pass prices
// once per tick for every lane. A cloud test selects its server by the
// timezone at test start (cloud.Select), so in each zone up to three
// lanes price the path from the same point to the same site. The sites
// come from the campaign's own fleet: for each zone, the first cloud
// server of the zone's region (cloud.Region). Sites are kept once per
// location, since cloud.BaseRTT reads only a server's kind and location.
type wireSites struct {
	sites []cloud.Server
	// byZone is each timezone's index into sites, -1 when the zone's
	// region has no cloud server in the fleet.
	byZone [geo.NumTimezones]int8
}

// wireRTT is one tick's shared wireline RTT: cloud.BaseRTT from the
// tick's point to the site of the tick's own zone.
type wireRTT struct {
	rtt time.Duration
	// site is 1 << the site's index in wireSites, 0 when the tick has no
	// shared value.
	site uint8
}

// newWireSites finds each zone's site in fleet.
func newWireSites(fleet []cloud.Server) *wireSites {
	w := &wireSites{}
	for z := range w.byZone {
		w.byZone[z] = -1
		region := cloud.Region(geo.Timezone(z))
		for i := range fleet {
			if s := &fleet[i]; s.Kind == cloud.Cloud && s.City == region {
				w.byZone[z] = w.index(s)
				break
			}
		}
	}
	return w
}

// index returns the index of s's location among the sites, adding s as
// a new site if none is there.
func (w *wireSites) index(s *cloud.Server) int8 {
	for k := range w.sites {
		if w.sites[k].Loc == s.Loc {
			return int8(k)
		}
	}
	w.sites = append(w.sites, *s)
	return int8(len(w.sites) - 1)
}

// at prices the tick's point to its zone's site: the call a lane whose
// server is at that site would make itself, so the value is the same
// bit for bit.
func (w *wireSites) at(ts *geo.TickState) wireRTT {
	z := ts.Waypoint.Timezone
	if uint(z) >= uint(len(w.byZone)) || w.byZone[z] < 0 {
		return wireRTT{}
	}
	k := w.byZone[z]
	return wireRTT{rtt: cloud.BaseRTT(&w.sites[k], ts.Point), site: 1 << k}
}

// mask reports the sites whose shared RTT is s's own: bit k is set when s
// is a cloud server at site k's location. An edge server shares none.
func (w *wireSites) mask(s *cloud.Server) uint8 {
	if s.Kind != cloud.Cloud {
		return 0
	}
	var m uint8
	for k := range w.sites {
		if w.sites[k].Loc == s.Loc {
			m |= 1 << k
		}
	}
	return m
}
