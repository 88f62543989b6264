package core

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/cloud"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

// sharedRTTTicks steps the whole route through the block producer at a
// 5 s tick, with the shared RTTs to sites, and returns every tick with
// its shared value. The drive crosses all four timezones, and with them
// from the California to the Ohio region.
func sharedRTTTicks(t *testing.T, sites *wireSites) ([]geo.TickState, []wireRTT) {
	t.Helper()
	tl := geo.NewTimeline(geo.DefaultRoute(), geo.DriveConfig{}, simrand.New(1), geo.TimelineConfig{Tick: 5 * time.Second})
	free := newBlockPool(2, 512)
	out := make(chan *tickBlock, 2)
	done := make(chan struct{})
	var ticks []geo.TickState
	var wire []wireRTT
	go func() {
		defer close(done)
		for blk := range out {
			ticks = append(ticks, blk.ticks...)
			wire = append(wire, blk.wire[:len(blk.ticks)]...)
			free <- blk
		}
	}()
	produceBlocks(tl.Cursor(), sites, 512, free, []chan *tickBlock{out})
	<-done
	var zones [geo.NumTimezones]bool
	for i := range ticks {
		zones[ticks[i].Waypoint.Timezone] = true
	}
	if zones != [geo.NumTimezones]bool{true, true, true, true} {
		t.Fatalf("the drive visits zones %v, want all four", zones)
	}
	return ticks, wire
}

// TestSharedRTTMatchesOwn is the shared wire RTT's property: on every
// tick of a drive across all four timezones, the RTT a lane uses equals
// cloud.BaseRTT(server, tick point) bit for bit, for every server of
// the campaign's fleet (cloud and edge, both roles) and of the
// -disable-edge fleet. Tests started by the lanes' own server choice,
// some of which cross from one cloud region into the other, must agree
// as well, and most cloud ticks must read the shared value.
func TestSharedRTTMatchesOwn(t *testing.T) {
	for _, disableEdge := range []bool{false, true} {
		c := NewCampaign(Config{Seed: 1, Limit: geo.DefaultRoute().Total(), DisableEdge: disableEdge})
		ticks, wire := sharedRTTTicks(t, c.wire)

		// Every fleet server, as if a test on it ran the whole route.
		edges := 0
		for _, s := range c.fleet {
			if s.Kind == cloud.Edge {
				edges++
			}
			p := &phone{wire: c.wire, server: s, wireMask: c.wire.mask(&s)}
			for i := range ticks {
				if got, want := p.wireRTT(&ticks[i], wire[i]), cloud.BaseRTT(&s, ticks[i].Point); got != want {
					t.Fatalf("disable-edge %v, %s at tick %d (%v): lane uses %v, own RTT %v", disableEdge, s.Name, i, ticks[i].Waypoint.Timezone, got, want)
				}
			}
		}
		if (edges == 0) != disableEdge {
			t.Fatalf("disable-edge %v: fleet has %d edge servers", disableEdge, edges)
		}

		// Back-to-back five-minute tests, each on the server the lane
		// picks at its start.
		const testTicks = 60
		for _, op := range radio.Operators() {
			for _, role := range []cloud.Role{cloud.General, cloud.GPU} {
				p := &phone{op: op, fleet: c.fleet, wire: c.wire}
				var start geo.Timezone
				crossed, shared, cloudTicks := 0, 0, 0
				for i := range ticks {
					ts := &ticks[i]
					if i%testTicks == 0 {
						p.pickServer(&ts.DriveState, role)
						start = ts.Waypoint.Timezone
					}
					if got, want := p.wireRTT(ts, wire[i]), cloud.BaseRTT(&p.server, ts.Point); got != want {
						t.Fatalf("disable-edge %v, %s %s test on %s from %v, tick %d in %v: lane uses %v, own RTT %v",
							disableEdge, op.Short(), role, p.server.Name, start, i, ts.Waypoint.Timezone, got, want)
					}
					if p.server.Kind == cloud.Cloud {
						cloudTicks++
						if cloud.Region(ts.Waypoint.Timezone) != cloud.Region(start) {
							crossed++
						}
						if wire[i].site&p.wireMask != 0 {
							shared++
						}
					}
				}
				if crossed == 0 {
					t.Errorf("disable-edge %v, %s %s: no test crossed into another region", disableEdge, op.Short(), role)
				}
				if shared < cloudTicks*9/10 {
					t.Errorf("disable-edge %v, %s %s: %d of %d cloud ticks read the shared RTT", disableEdge, op.Short(), role, shared, cloudTicks)
				}
			}
		}
	}
}

// TestWireSitesFromFleet pins where the shared RTTs come from: one site
// per location, each zone's the first cloud server of its region in
// fleet order, and none for a region without a cloud server.
func TestWireSitesFromFleet(t *testing.T) {
	w := newWireSites(cloud.Fleet())
	if len(w.sites) != 2 || w.sites[0].City != "California" || w.sites[1].City != "Ohio" {
		t.Fatalf("sites %v, want California and Ohio", w.sites)
	}
	if w.byZone != [geo.NumTimezones]int8{0, 0, 1, 1} {
		t.Errorf("zone sites %v, want California for Pacific and Mountain, Ohio for Central and Eastern", w.byZone)
	}
	for _, s := range cloud.Fleet() {
		want := uint8(0)
		switch {
		case s.Kind == cloud.Edge:
		case s.City == "California":
			want = 1
		case s.City == "Ohio":
			want = 2
		}
		if got := w.mask(&s); got != want {
			t.Errorf("%s: mask %b, want %b", s.Name, got, want)
		}
	}

	// A fleet with only Ohio's servers shares nothing west of Central,
	// and a General/GPU pair apart shares only at the first one's site.
	var ohio []cloud.Server
	for _, s := range cloud.Fleet() {
		if s.Kind == cloud.Cloud && s.City == "Ohio" {
			ohio = append(ohio, s)
		}
	}
	ohio[1].Loc.Lat += 1
	w = newWireSites(ohio)
	if w.byZone != [geo.NumTimezones]int8{-1, -1, 0, 0} || len(w.sites) != 1 {
		t.Fatalf("Ohio-only fleet: zone sites %v over %d sites", w.byZone, len(w.sites))
	}
	ts := geo.TickState{Point: geo.Prepare(geo.LatLon{Lat: 36, Lon: -115})}
	ts.Waypoint.Timezone = geo.Pacific
	if got := w.at(&ts); got != (wireRTT{}) {
		t.Errorf("Pacific tick without a California site carries %+v", got)
	}
	ts.Waypoint.Timezone = geo.Eastern
	if got := w.at(&ts); got.site != 1 || got.rtt != cloud.BaseRTT(&ohio[0], ts.Point) {
		t.Errorf("Eastern tick carries %+v, want Ohio's RTT", got)
	}
	if w.mask(&ohio[0]) != 1 || w.mask(&ohio[1]) != 0 {
		t.Errorf("masks %b and %b, want 1 for the site's server and 0 for the one apart", w.mask(&ohio[0]), w.mask(&ohio[1]))
	}
}
