package cloud

import (
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

func TestFleetComposition(t *testing.T) {
	fleet := Fleet()
	var clouds, edges, gpus int
	names := map[string]bool{}
	for _, s := range fleet {
		if names[s.Name] {
			t.Errorf("duplicate server name %q", s.Name)
		}
		names[s.Name] = true
		switch s.Kind {
		case Cloud:
			clouds++
		case Edge:
			edges++
		}
		if s.Role == GPU {
			gpus++
		}
	}
	if clouds != 4 {
		t.Errorf("cloud servers = %d, want 4 (2 regions × 2 roles)", clouds)
	}
	if edges != 10 {
		t.Errorf("edge servers = %d, want 10 (5 cities × 2 roles)", edges)
	}
	if gpus != 7 {
		t.Errorf("gpu servers = %d, want 7", gpus)
	}
}

func TestFleetEdgeCitiesMatchPaper(t *testing.T) {
	want := map[string]bool{
		"Los Angeles": true, "Las Vegas": true, "Denver": true, "Chicago": true, "Boston": true,
	}
	for _, s := range Fleet() {
		if s.Kind == Edge && !want[s.City] {
			t.Errorf("unexpected edge city %q", s.City)
		}
	}
}

func TestKindRoleStrings(t *testing.T) {
	if Cloud.String() != "cloud" || Edge.String() != "edge" {
		t.Error("kind strings wrong")
	}
	if General.String() != "general" || GPU.String() != "gpu" {
		t.Error("role strings wrong")
	}
	if s := (Server{Name: "x", Kind: Edge, Role: GPU}).String(); !strings.Contains(s, "edge") || !strings.Contains(s, "gpu") {
		t.Errorf("server String = %q", s)
	}
}

func TestSelectVerizonEdgeInCity(t *testing.T) {
	fleet := Fleet()
	route := geo.DefaultRoute()
	wp := route.At(0) // Los Angeles
	s := Select(fleet, wp, radio.Verizon, General)
	if s.Kind != Edge || s.City != "Los Angeles" {
		t.Errorf("Verizon in LA selected %v", s)
	}
	gpu := Select(fleet, wp, radio.Verizon, GPU)
	if gpu.Kind != Edge || gpu.Role != GPU {
		t.Errorf("Verizon GPU in LA selected %v", gpu)
	}
}

func TestSelectOtherOperatorsNeverEdge(t *testing.T) {
	fleet := Fleet()
	wp := geo.DefaultRoute().At(0)
	for _, op := range []radio.Operator{radio.TMobile, radio.ATT} {
		if s := Select(fleet, wp, op, General); s.Kind != Cloud {
			t.Errorf("%v selected %v, want cloud", op, s)
		}
	}
}

func TestSelectCloudRegionByTimezone(t *testing.T) {
	fleet := Fleet()
	route := geo.DefaultRoute()
	// Mid-Mountain timezone (no edge city nearby): California.
	var mountainWP, centralWP geo.Waypoint
	for odo := unit.Meters(0); odo < route.Total(); odo += 10 * unit.Kilometer {
		wp := route.At(odo)
		if wp.Timezone == geo.Mountain && wp.CityDistance > EdgeRadius && mountainWP.City == "" {
			mountainWP = wp
		}
		if wp.Timezone == geo.Central && wp.CityDistance > EdgeRadius && centralWP.City == "" {
			centralWP = wp
		}
	}
	if s := Select(fleet, mountainWP, radio.Verizon, General); s.City != "California" {
		t.Errorf("Mountain selected %v, want California", s)
	}
	if s := Select(fleet, centralWP, radio.TMobile, General); s.City != "Ohio" {
		t.Errorf("Central selected %v, want Ohio", s)
	}
}

func TestSelectVerizonOutsideEdgeRadiusUsesCloud(t *testing.T) {
	fleet := Fleet()
	route := geo.DefaultRoute()
	for odo := unit.Meters(0); odo < route.Total(); odo += 10 * unit.Kilometer {
		wp := route.At(odo)
		if wp.CityDistance > EdgeRadius {
			if s := Select(fleet, wp, radio.Verizon, General); s.Kind != Cloud {
				t.Fatalf("Verizon at %v (city dist %v) selected %v", odo, wp.CityDistance, s)
			}
			return
		}
	}
	t.Fatal("no waypoint outside edge radius found")
}

func TestBaseRTTEdgeBelowCloud(t *testing.T) {
	fleet := Fleet()
	la := geo.MajorCities()[0].Loc
	var edge, cld Server
	for _, s := range fleet {
		if s.Kind == Edge && s.City == "Los Angeles" && s.Role == General {
			edge = s
		}
		if s.Kind == Cloud && s.City == "California" && s.Role == General {
			cld = s
		}
	}
	e, c := BaseRTT(&edge, geo.Prepare(la)), BaseRTT(&cld, geo.Prepare(la))
	if e >= c {
		t.Errorf("edge RTT %v not below cloud RTT %v", e, c)
	}
	if e < time.Millisecond || e > 10*time.Millisecond {
		t.Errorf("in-city edge RTT = %v, want a few ms", e)
	}
}

func TestBaseRTTGrowsWithDistance(t *testing.T) {
	oh := Server{Name: "oh", Kind: Cloud, Loc: geo.LatLon{Lat: 39.96, Lon: -83.00}}
	near := BaseRTT(&oh, geo.Prepare(geo.LatLon{Lat: 41.5, Lon: -81.7})) // Cleveland
	far := BaseRTT(&oh, geo.Prepare(geo.LatLon{Lat: 34.05, Lon: -118.24}))
	if near >= far {
		t.Errorf("RTT near %v not below far %v", near, far)
	}
	// Cross-country cloud RTT should be tens of ms, not seconds.
	if far < 30*time.Millisecond || far > 120*time.Millisecond {
		t.Errorf("cross-country RTT = %v", far)
	}
}
