package core

import (
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/speedtest"
)

// OoklaMeasured is Table 3 with the crowdsourced column *measured* by the
// speedtest simulation instead of copied from the published report —
// both columns produced by the same substrates, removing the paper's
// "take it with a grain of salt" caveats about methodology mismatch.
type OoklaMeasured struct {
	// Driving holds the campaign's per-test medians, as in Table 3.
	Driving map[radio.Operator]OoklaRow
	// Crowd holds the simulated static crowd (DL, UL, RTT medians).
	Crowd map[radio.Operator]speedtest.Summary
}

// MeasureSpeedtestCrowd produces the crowd column of the measured Table 3.
// With a crowd registry enabled it summarizes the results the measuring
// crowd UEs produced *during* Run — real concurrent flows against the
// registry's own demand — so Run must have been called first. Without a
// registry it falls back to the legacy post-hoc sampling over the
// deployments, where samples caps the per-operator draw count.
func (c *Campaign) MeasureSpeedtestCrowd(samples int) map[radio.Operator]speedtest.Summary {
	if c.cfg.crowdEnabled() {
		out := map[radio.Operator]speedtest.Summary{}
		for _, l := range c.lanes {
			out[l.op] = speedtest.Summarize(l.crowdResults)
		}
		return out
	}
	cfg := crowdSpeedtestConfig()
	if samples > 0 {
		cfg.Samples = samples
	}
	out := map[radio.Operator]speedtest.Summary{}
	rng := simrand.New(c.cfg.Seed).Fork("speedtest-crowd")
	for op, m := range c.maps {
		out[op] = speedtest.Summarize(speedtest.Crowd(c.route, m, cfg, rng))
	}
	return out
}

// TableOoklaMeasured combines the campaign's driving medians with the
// measured crowd.
func TableOoklaMeasured(db *dataset.DB, crowd map[radio.Operator]speedtest.Summary) OoklaMeasured {
	base := TableOoklaComparison(db)
	return OoklaMeasured{Driving: base.Rows, Crowd: crowd}
}

// Render formats the measured Table 3.
func (r OoklaMeasured) Render() string {
	header := []string{"operator", "drive DL", "crowd DL", "drive UL", "crowd UL", "drive RTT", "crowd RTT"}
	var rows [][]string
	for _, op := range radio.Operators() {
		d := r.Driving[op]
		c := r.Crowd[op]
		rows = append(rows, []string{
			op.String(),
			f2(d.OurDL), f2(c.DL.Median),
			f2(d.OurUL), f2(c.UL.Median),
			f2(d.OurRTT), f2(c.RTT.Median),
		})
	}
	return renderTable("Table 3 (measured variant): driving vs simulated static crowd", header, rows)
}
