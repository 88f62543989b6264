package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOLSExactLinear(t *testing.T) {
	// y = 3 + 2a − b, noise-free: recovered exactly, R² = 1.
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := []float64{2, 1, 4, 3, 6, 5, 8}
	y := make([]float64, len(a))
	for i := range y {
		y[i] = 3 + 2*a[i] - b[i]
	}
	r, err := OLS(y, []string{"a", "b"}, map[string][]float64{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Intercept-3) > 1e-9 {
		t.Errorf("intercept = %v, want 3", r.Intercept)
	}
	if math.Abs(r.Coef[0]-2) > 1e-9 || math.Abs(r.Coef[1]+1) > 1e-9 {
		t.Errorf("coefs = %v, want [2, -1]", r.Coef)
	}
	if math.Abs(r.R2-1) > 1e-9 {
		t.Errorf("R² = %v, want 1", r.R2)
	}
	if r.N != 7 {
		t.Errorf("N = %d", r.N)
	}
}

// TestOLSPredict fits one regressor and evaluates the fitted line off
// the sample.
func TestOLSPredict(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2a
	r, err := OLS(y, []string{"a"}, map[string][]float64{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Intercept + r.Coef[0]*10; math.Abs(got-21) > 1e-9 {
		t.Errorf("fit at a = 10: %v, want 21", got)
	}
}

func TestOLSNoisyR2Bounded(t *testing.T) {
	// Pure noise target: R² near 0 but within [0, 1].
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{5, -3, 8, 1, -7, 2, 9, -4, 6, 0}
	r, err := OLS(y, []string{"a"}, map[string][]float64{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	if r.R2 < -1e-9 || r.R2 > 0.5 {
		t.Errorf("R² = %v for noise", r.R2)
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil, nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	// Too few observations.
	if _, err := OLS([]float64{1, 2}, []string{"a", "b"},
		map[string][]float64{"a": {1, 2}, "b": {3, 4}}); err == nil {
		t.Error("underdetermined fit accepted")
	}
	// Column length mismatch.
	if _, err := OLS([]float64{1, 2, 3, 4}, []string{"a"},
		map[string][]float64{"a": {1, 2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Collinear predictors.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{2, 4, 6, 8, 10, 12} // b = 2a
	y := []float64{1, 2, 3, 4, 5, 6}
	if _, err := OLS(y, []string{"a", "b"},
		map[string][]float64{"a": a, "b": b}); err == nil {
		t.Error("collinear design accepted")
	}
}

func TestOLSStandardizedCoefficients(t *testing.T) {
	// With one predictor, the standardized coefficient equals Pearson r.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 4, 5, 4, 5, 7, 8, 9}
	r, err := OLS(y, []string{"a"}, map[string][]float64{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Pearson(a, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.StdCoef[0]-pr) > 1e-9 {
		t.Errorf("std coef = %v, Pearson = %v", r.StdCoef[0], pr)
	}
}

func TestOLSR2AtLeastBestSingleProperty(t *testing.T) {
	// Adding predictors never lowers in-sample R² below the single-
	// predictor fit.
	f := func(seed uint8) bool {
		n := 40
		a := make([]float64, n)
		b := make([]float64, n)
		y := make([]float64, n)
		x := float64(seed) + 1
		for i := 0; i < n; i++ {
			x = math.Mod(x*37+11, 97)
			a[i] = x
			x = math.Mod(x*53+7, 89)
			b[i] = x
			y[i] = 0.5*a[i] - 0.2*b[i] + math.Mod(x*13, 5)
		}
		one, err1 := OLS(y, []string{"a"}, map[string][]float64{"a": a})
		two, err2 := OLS(y, []string{"a", "b"}, map[string][]float64{"a": a, "b": b})
		if err1 != nil || err2 != nil {
			return true
		}
		return two.R2 >= one.R2-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	x, err := solve(a, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {2, 2}}
	if _, err := solve(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}
