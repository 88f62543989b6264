// Package cloud models the study's server side: AWS EC2 cloud instances
// in California and Ohio, and the five Amazon Wavelength edge servers
// deployed inside Verizon's network in Los Angeles, Las Vegas, Denver,
// Chicago, and Boston (§3).
//
// The base round-trip time between the UE's position and a server is the
// wireline part of every RTT in the study: fiber propagation over an
// inflated route plus a fixed peering/processing overhead that is much
// smaller for edge servers — the mechanism behind the paper's "edge
// computing is critical" finding (§5.2).
package cloud

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Kind distinguishes remote cloud regions from in-network edge sites.
type Kind int

// Server kinds.
const (
	Cloud Kind = iota
	Edge
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Edge {
		return "edge"
	}
	return "cloud"
}

// Role describes the instance family, mirroring §B's two EC2 families.
type Role int

// Server roles.
const (
	General Role = iota // t3.xlarge-class Linux instance
	GPU                 // g4dn.2xlarge-class gaming/inference instance
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == GPU {
		return "gpu"
	}
	return "general"
}

// Server is one deployed application server.
type Server struct {
	Name string
	Kind Kind
	Role Role
	City string // nearest city label, for reports
	Loc  geo.LatLon

	// point is Loc prepared for distance queries; Fleet prepares it once,
	// and prepared says it has.
	point    geo.PreparedPoint
	prepared bool
}

// String implements fmt.Stringer.
func (s Server) String() string {
	return fmt.Sprintf("%s(%s,%s)", s.Name, s.Kind, s.Role)
}

// Fleet returns the study's full server deployment: general and GPU
// cloud instances in both regions, plus the five Verizon Wavelength edge
// sites (general and GPU roles colocated).
func Fleet() []Server {
	ca := geo.LatLon{Lat: 37.77, Lon: -122.42} // us-west-1
	oh := geo.LatLon{Lat: 39.96, Lon: -83.00}  // us-east-2
	fleet := []Server{
		{Name: "ec2-ca-general", Kind: Cloud, Role: General, City: "California", Loc: ca},
		{Name: "ec2-ca-gpu", Kind: Cloud, Role: GPU, City: "California", Loc: ca},
		{Name: "ec2-oh-general", Kind: Cloud, Role: General, City: "Ohio", Loc: oh},
		{Name: "ec2-oh-gpu", Kind: Cloud, Role: GPU, City: "Ohio", Loc: oh},
	}
	for _, c := range geo.MajorCities() {
		if !c.HasEdge {
			continue
		}
		fleet = append(fleet,
			Server{Name: "wl-" + short(c.Name) + "-general", Kind: Edge, Role: General, City: c.Name, Loc: c.Loc},
			Server{Name: "wl-" + short(c.Name) + "-gpu", Kind: Edge, Role: GPU, City: c.Name, Loc: c.Loc},
		)
	}
	for i := range fleet {
		fleet[i].point, fleet[i].prepared = geo.Prepare(fleet[i].Loc), true
	}
	return fleet
}

func short(city string) string {
	switch city {
	case "Los Angeles":
		return "lax"
	case "Las Vegas":
		return "las"
	case "Denver":
		return "den"
	case "Chicago":
		return "chi"
	case "Boston":
		return "bos"
	default:
		return "xxx"
	}
}

// EdgeRadius is how close to an edge city the UE must be for tests to use
// its Wavelength server.
const EdgeRadius = 60 * unit.Kilometer

// Select picks the server a test at the given waypoint uses, following
// §3's methodology: Verizon tests near one of the five edge cities use
// that city's Wavelength server; everything else uses the cloud region of
// the current half of the country (California for Pacific/Mountain, Ohio
// for Central/Eastern).
func Select(fleet []Server, wp geo.Waypoint, op radio.Operator, role Role) Server {
	if op == radio.Verizon && wp.CityHasEdge && wp.CityDistance < EdgeRadius {
		for _, s := range fleet {
			if s.Kind == Edge && s.Role == role && s.City == wp.City {
				return s
			}
		}
	}
	region := Region(wp.Timezone)
	for _, s := range fleet {
		if s.Kind == Cloud && s.Role == role && s.City == region {
			return s
		}
	}
	// A fleet without cloud servers is a configuration error; fall back
	// to anything rather than panic mid-campaign.
	return fleet[0]
}

// Region names the cloud region whose servers tests in timezone z use:
// California for Pacific and Mountain, Ohio for Central and Eastern. A
// server is in a region when its City is the region's name.
func Region(z geo.Timezone) string {
	if z == geo.Central || z == geo.Eastern {
		return "Ohio"
	}
	return "California"
}

// Propagation and overhead constants for BaseRTT.
const (
	fiberSpeed     = 2.0e8 // m/s in glass
	routeInflation = 1.7   // fiber paths are longer than great circles
	cloudOverhead  = 16 * time.Millisecond
	edgeOverhead   = 2 * time.Millisecond
)

// BaseRTT reports the wireline round-trip time between a UE position,
// prepared by geo.Prepare, and the server: two-way fiber propagation over
// an inflated path plus peering/processing overhead. The radio access
// latency is added by the transport layer, not here. It reads only the
// server's Kind and Loc, so two servers of one kind at one location have
// the same RTT from every position, bit for bit.
func BaseRTT(s *Server, at geo.PreparedPoint) time.Duration {
	to := s.point
	if !s.prepared {
		to = geo.Prepare(s.Loc) // a Server built by hand, not by Fleet
	}
	d := float64(at.Distance(to)) * routeInflation
	prop := time.Duration(2 * d / fiberSpeed * float64(time.Second))
	if s.Kind == Edge {
		return prop + edgeOverhead
	}
	return prop + cloudOverhead
}
