package stats

import (
	"errors"
	"fmt"
	"math"
)

// Regression is an ordinary-least-squares fit of y on several predictor
// columns plus an intercept — the multivariate analysis the paper names
// as future work in §5.5 ("an in-depth understanding of the impact of
// multiple KPIs on performance requires a multivariate analysis").
type Regression struct {
	// Names of the predictor columns, in coefficient order.
	Names []string
	// Coef[i] is the fitted coefficient of Names[i]; Intercept is the
	// constant term.
	Coef      []float64
	Intercept float64
	// R2 is the coefficient of determination on the fitting data.
	R2 float64
	// N is the number of observations.
	N int
	// StdCoef[i] is the standardized (beta) coefficient — the effect of
	// a one-standard-deviation move in the predictor, in standard
	// deviations of y. Comparable across predictors with different units.
	StdCoef []float64
}

// ErrSingular is returned when the normal equations cannot be solved
// (collinear or constant predictors).
var ErrSingular = errors.New("stats: singular design matrix")

// OLS fits y = b0 + Σ bi·xi by solving the normal equations with
// Gaussian elimination. cols maps name → column values; every column
// must have len(y) entries.
func OLS(y []float64, names []string, cols map[string][]float64) (Regression, error) {
	n := len(y)
	p := len(names)
	if n == 0 {
		return Regression{}, ErrEmpty
	}
	if n <= p+1 {
		return Regression{}, fmt.Errorf("stats: %d observations for %d predictors", n, p)
	}
	// x[j] is names[j]'s column, looked up once rather than per row.
	x := make([][]float64, p)
	for j, name := range names {
		x[j] = cols[name]
		if len(x[j]) != n {
			return Regression{}, fmt.Errorf("stats: column %q has %d values, want %d", name, len(x[j]), n)
		}
	}

	// Build X'X and X'y with the intercept as column 0.
	d := p + 1
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for k := 0; k < n; k++ {
		row[0] = 1
		for j, col := range x {
			row[j+1] = col[k]
		}
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[k]
		}
	}
	// X'X is symmetric: a product is the same either way round.
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}

	beta, err := solve(xtx, xty)
	if err != nil {
		return Regression{}, err
	}

	// R² from residuals.
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	var ssTot, ssRes float64
	for k := 0; k < n; k++ {
		pred := beta[0]
		for j, col := range x {
			pred += beta[j+1] * col[k]
		}
		r := y[k] - pred
		ssRes += r * r
		dTot := y[k] - meanY
		ssTot += dTot * dTot
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}

	reg := Regression{
		Names:     append([]string(nil), names...),
		Coef:      beta[1:],
		Intercept: beta[0],
		R2:        r2,
		N:         n,
	}

	// Standardized coefficients.
	sy := stddev(y)
	reg.StdCoef = make([]float64, p)
	for j, col := range x {
		sx := stddev(col)
		if sy > 0 {
			reg.StdCoef[j] = reg.Coef[j] * sx / sy
		}
	}
	return reg, nil
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// the inputs.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := m[i][n]
		for j := i + 1; j < n; j++ {
			v -= m[i][j] * x[j]
		}
		x[i] = v / m[i][i]
	}
	return x, nil
}
