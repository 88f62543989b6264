package core

import (
	"math"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/radio"
)

func TestAnalyzeMultivariate(t *testing.T) {
	db := quickDB(t)
	m := multivariate(newView(db))
	fitted := 0
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			if _, bad := m.Errors[k]; bad {
				continue
			}
			fit := m.Fit[k]
			fitted++
			if fit.R2 < 0 || fit.R2 > 1 {
				t.Errorf("%v %v: R² = %v", op, dir, fit.R2)
			}
			if len(fit.Coef) != 6 || len(fit.StdCoef) != 6 {
				t.Errorf("%v %v: %d coefficients", op, dir, len(fit.Coef))
			}
			for _, c := range fit.StdCoef {
				if math.IsNaN(c) {
					t.Errorf("%v %v: NaN std coefficient", op, dir)
				}
			}
			if m.DominantKPI(op, dir) == "" {
				t.Errorf("%v %v: no dominant KPI", op, dir)
			}
		}
	}
	if fitted == 0 {
		t.Fatal("no combination could be fitted")
	}
	out := m.Render()
	if !strings.Contains(out, "Multivariate") || !strings.Contains(out, "R²") {
		t.Errorf("render = %q", out[:80])
	}
}

func TestMultivariateJointBeatsMarginals(t *testing.T) {
	// The joint fit must explain at least as much variance as the single
	// strongest Pearson correlation squared (in-sample OLS property).
	db := quickDB(t)
	m := multivariate(newView(db))
	corr := TableKPICorrelation(db)
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			fit, ok := m.Fit[k]
			if !ok {
				continue
			}
			best := 0.0
			for _, r := range corr.R[op][dir] {
				if r*r > best {
					best = r * r
				}
			}
			if fit.R2 < best-1e-6 {
				t.Errorf("%v %v: joint R²=%.3f below best single r²=%.3f", op, dir, fit.R2, best)
			}
		}
	}
}

func TestMultivariateEmptyDB(t *testing.T) {
	m := multivariate(newView(&dataset.DB{}))
	if len(m.Fit) != 0 {
		t.Error("fit on empty dataset")
	}
	if len(m.Errors) == 0 {
		t.Error("no error notes on empty dataset")
	}
	_ = m.Render()
	if m.DominantKPI(radio.Verizon, radio.Downlink) != "" {
		t.Error("dominant KPI on empty dataset")
	}
}
