package core

import (
	"fmt"
	"sort"

	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
)

// Multivariate is the analysis the paper leaves as future work (§5.5):
// an OLS fit of 500 ms throughput on all of Table 2's KPIs at once,
// reporting how much variance the KPIs jointly explain (R²) and which
// predictors carry the weight (standardized coefficients).
type Multivariate struct {
	// Fit[opDir] is the joint regression.
	Fit map[opDir]stats.Regression
	// Errors notes combinations that could not be fitted.
	Errors map[opDir]string
}

// multivariate fits throughput ~ RSRP + MCS + CA + BLER + Speed + HO
// per operator and direction over driving samples.
func multivariate(v *view) Multivariate {
	out := Multivariate{
		Fit:    map[opDir]stats.Regression{},
		Errors: map[opDir]string{},
	}
	names := []string{"RSRP", "MCS", "CA", "BLER", "Speed", "HO"}
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			y, cols := v.drivingKPIs(op, dir)
			k := opDir{op, dir}
			if len(y) < 20 {
				out.Errors[k] = "too few samples"
				continue
			}
			fit, err := stats.OLS(y, names, cols)
			if err != nil {
				out.Errors[k] = err.Error()
				continue
			}
			out.Fit[k] = fit
		}
	}
	return out
}

// DominantKPI reports the predictor with the largest |standardized
// coefficient| for one operator/direction, or "" if unfitted.
func (m Multivariate) DominantKPI(op radio.Operator, dir radio.Direction) string {
	fit, ok := m.Fit[opDir{op, dir}]
	if !ok {
		return ""
	}
	best, bestAbs := "", -1.0
	for j, name := range fit.Names {
		v := fit.StdCoef[j]
		if v < 0 {
			v = -v
		}
		if v > bestAbs {
			best, bestAbs = name, v
		}
	}
	return best
}

// Render formats the multivariate table.
func (m Multivariate) Render() string {
	header := []string{"operator", "dir", "R²", "n", "dominant KPI", "std coefficients"}
	var rows [][]string
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			k := opDir{op, dir}
			if msg, bad := m.Errors[k]; bad {
				rows = append(rows, []string{op.String(), dir.String(), "-", "-", "-", msg})
				continue
			}
			fit := m.Fit[k]
			parts := make([]string, len(fit.Names))
			for j, n := range fit.Names {
				parts[j] = fmt.Sprintf("%s=%.2f", n, fit.StdCoef[j])
			}
			sort.Strings(parts)
			rows = append(rows, []string{
				op.String(), dir.String(),
				f2(fit.R2), fmt.Sprintf("%d", fit.N),
				m.DominantKPI(op, dir),
				join(parts),
			})
		}
	}
	return renderTable("Multivariate (paper §5.5 future work): throughput ~ all KPIs", header, rows)
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
