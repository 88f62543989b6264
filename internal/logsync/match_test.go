package logsync

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// matchScan is the matcher's reference: every (capture, app) pair of one
// operator and kind over a scan of all the app logs, at its least skew
// over the capture's readings, the pairs within matchTolerance taken in
// ascending (skew, capture name, app index). It reports each matched
// capture's app index and skew by name.
func matchScan(captures []Capture, apps []AppLog) (map[string]int, map[string]time.Duration) {
	type pair struct {
		name string
		app  int
		skew time.Duration
	}
	var pairs []pair
	for _, c := range captures {
		if !c.labeled {
			continue
		}
		readings := []time.Time{c.first}
		if c.first.IsZero() {
			zones := resolveFileStart(c.stamp)
			readings = zones[:]
		}
		for a, app := range apps {
			if app.Op != c.op || app.Kind != c.kind {
				continue
			}
			best := matchTolerance + 1
			for _, r := range readings {
				best = min(best, max(app.Start.Sub(r), r.Sub(app.Start)))
			}
			if best <= matchTolerance {
				pairs = append(pairs, pair{c.Name, a, best})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.skew, b.skew), strings.Compare(a.name, b.name), cmp.Compare(a.app, b.app))
	})
	app, skew := map[string]int{}, map[string]time.Duration{}
	used := map[int]bool{}
	for _, p := range pairs {
		if _, ok := app[p.name]; !ok && !used[p.app] {
			app[p.name], skew[p.name], used[p.app] = p.app, p.skew, true
		}
	}
	return app, skew
}

// TestMatchWindowMatchesScan pins match to matchScan over random captures
// and app logs crowded around two instants two hours apart, so equal
// skews, equal starts and captures with several candidates are common.
// Some captures have no rows and are read at their name stamps. match
// must also number the matched captures in name order, list the
// unmatched ones in name order, and give the same assignment for the
// captures in reverse order.
func TestMatchWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := time.Date(2022, 8, 15, 16, 1, 38, 0, time.UTC)
	ops := []radio.Operator{radio.ATT, radio.Verizon}
	kinds := []dataset.TestKind{dataset.AppAR, dataset.RTTTest}
	near := func() time.Time {
		hub := base.Add(time.Duration(rng.Intn(2)) * 2 * time.Hour)
		return hub.Add(time.Duration(rng.Intn(41)-20) * 250 * time.Millisecond)
	}
	for trial := 0; trial < 5_000; trial++ {
		apps := make([]AppLog, 1+rng.Intn(12))
		for i := range apps {
			apps[i] = AppLog{Op: ops[rng.Intn(2)], Kind: kinds[rng.Intn(2)], Start: near().Add(time.Duration(rng.Intn(5)-2) * time.Hour)}
		}
		captures := make([]Capture, 1+rng.Intn(12))
		for i := range captures {
			c := Capture{op: ops[rng.Intn(2)], kind: kinds[rng.Intn(2)], labeled: rng.Intn(10) > 0}
			at, zone := near(), geo.Timezone(rng.Intn(geo.NumTimezones))
			if rng.Intn(3) > 0 {
				c.first = at
			}
			local := at.In(zone.Location())
			c.stamp = time.Date(local.Year(), local.Month(), local.Day(), local.Hour(), local.Minute(), local.Second(), 0, time.UTC)
			c.Name = fmt.Sprintf("%s_%s_%s_%02d.drm", c.op.Short(), LabelOf(c.kind), c.stamp.Format(xcal.FileNameFormat), i)
			captures[i] = c
		}
		wantApp, wantSkew := matchScan(captures, apps)
		reversed := slices.Clone(captures)
		slices.Reverse(reversed)
		for _, in := range [][]Capture{captures, reversed} {
			matches, rep := match(in, apps)
			var matched []string
			for i, m := range matches {
				app := -1
				for a := range apps {
					if &apps[a] == m.app {
						app = a
					}
				}
				if m.id != i+1 || app != wantApp[m.c.Name] || m.skew != wantSkew[m.c.Name] {
					t.Fatalf("trial %d: %s matched app %d at %v as test %d, scan app %d at %v",
						trial, m.c.Name, app, m.skew, m.id, wantApp[m.c.Name], wantSkew[m.c.Name])
				}
				matched = append(matched, m.c.Name)
			}
			if !slices.IsSorted(matched) || !slices.IsSorted(rep.UnmatchedFiles) ||
				len(matched) != len(wantApp) || rep.Matched != len(matched) || len(matched)+len(rep.UnmatchedFiles) != len(captures) ||
				rep.UnmatchedApps != len(apps)-len(matched) {
				t.Fatalf("trial %d: matched %v, report %+v; the scan matches %d", trial, matched, rep, len(wantApp))
			}
		}
	}
}

// TestMatchTwoHoursApart builds the collision the full route's seed 5
// hit. AT&T AR file A is recorded in Eastern time at 13:01:38.05 UTC,
// and file B in Central time three hours later. Their name stamps,
// 09:01:38 and 11:01:38, lie exactly two hours apart, so A's Pacific
// reading falls 50 ms from B's app log, as close as A's Eastern reading
// falls to its own. Matched by name stamps in name order, A takes B's app
// log and B goes unmatched. Each file's first row carries its test's
// start, which names its own app log.
func TestMatchTwoHoursApart(t *testing.T) {
	startA := time.Date(2022, 8, 15, 13, 1, 38, 50e6, time.UTC)
	startB := startA.Add(3 * time.Hour)
	file := func(at time.Time, zone geo.Timezone) xcal.File {
		rec := xcal.NewRecorder(radio.ATT)
		rec.StartFile(LabelOf(dataset.AppAR), at, zone)
		wp := geo.DefaultRoute().At(2000 * unit.Kilometer)
		tick := 50 * time.Millisecond
		for i := range int(time.Second / tick) {
			st := ran.LinkState{Time: at.Add(time.Duration(i) * tick), Tech: radio.LTE, CellID: "A-1"}
			rec.Observe(tick, st, wp, 42, 0)
		}
		return rec.CloseFile()
	}
	a, b := file(startA, geo.Eastern), file(startB, geo.Central)
	if !strings.HasSuffix(a.Name, "_090138.drm") || !strings.HasSuffix(b.Name, "_110138.drm") {
		t.Fatalf("names %s and %s, want stamps 09:01:38 and 11:01:38", a.Name, b.Name)
	}
	apps := []AppLog{
		{Op: radio.ATT, Kind: dataset.AppAR, Server: "B", Start: startB, DurationSec: 1},
		{Op: radio.ATT, Kind: dataset.AppAR, Server: "A", Start: startA, DurationSec: 1},
	}
	db, rep := merge(t, Input{Captures: captures(a, b), Apps: apps})
	if rep.Matched != 2 || len(rep.UnmatchedFiles) != 0 || rep.UnmatchedApps != 0 {
		t.Fatalf("report = %+v, want both files matched", rep)
	}
	for _, test := range db.Tests {
		if want := map[bool]string{true: "A", false: "B"}[test.Start.Equal(startA)]; test.Server != want {
			t.Errorf("test starting %v got app log %s, want %s", test.Start, test.Server, want)
		}
	}
}
