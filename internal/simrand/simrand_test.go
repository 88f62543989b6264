package simrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestForkDeterminism(t *testing.T) {
	a := New(42).Fork("ran").Fork("cell7")
	b := New(42).Fork("ran").Fork("cell7")
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: same path diverged: %v vs %v", i, x, y)
		}
	}
}

func TestForkIndependentOfSiblingOrder(t *testing.T) {
	// Creating unrelated sibling streams must not perturb a named stream.
	root1 := New(7)
	_ = root1.Fork("noise-a")
	target1 := root1.Fork("target")

	root2 := New(7)
	target2 := root2.Fork("target")
	_ = root2.Fork("noise-b")

	for i := 0; i < 50; i++ {
		if x, y := target1.Float64(), target2.Float64(); x != y {
			t.Fatalf("draw %d: sibling creation order changed stream: %v vs %v", i, x, y)
		}
	}
}

func TestForkDistinctPathsDiffer(t *testing.T) {
	root := New(1)
	a, b := root.Fork("a"), root.Fork("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("distinct streams matched %d/100 draws; expected near 0", same)
	}
}

func TestForkSeedSensitivity(t *testing.T) {
	a := New(1).Fork("x")
	b := New(2).Fork("x")
	if a.Float64() == b.Float64() {
		t.Error("different seeds produced identical first draw")
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(99).Fork("normal")
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := s.Normal(5, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("mean = %v, want ≈5", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("std = %v, want ≈2", std)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(3).Fork("lognormal")
	const n = 20001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = s.LogNormalMedian(53, 0.4)
	}
	// The sample median should sit near the configured median.
	med := quickMedian(xs)
	if med < 48 || med > 58 {
		t.Errorf("median = %v, want ≈53", med)
	}
	for _, x := range xs {
		if x <= 0 {
			t.Fatalf("lognormal produced non-positive value %v", x)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(5).Fork("bool")
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.03 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(6).Fork("uniform")
	f := func(seed uint8) bool {
		x := s.Uniform(-3, 7)
		return x >= -3 && x < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPickWeights(t *testing.T) {
	s := New(11).Fork("pick")
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Pick([]float64{1, 2, 1})]++
	}
	if p := float64(counts[1]) / n; math.Abs(p-0.5) > 0.03 {
		t.Errorf("middle weight frequency = %v, want ≈0.5", p)
	}
}

func TestPickZeroWeightNeverChosen(t *testing.T) {
	s := New(12).Fork("pickzero")
	for i := 0; i < 1000; i++ {
		if got := s.Pick([]float64{0, 1, 0}); got != 1 {
			t.Fatalf("Pick chose zero-weight index %d", got)
		}
	}
}

func TestPickAllNonPositive(t *testing.T) {
	s := New(13).Fork("picknone")
	if got := s.Pick([]float64{0, -1, 0}); got != 0 {
		t.Errorf("Pick with no positive weights = %d, want 0", got)
	}
}

func TestOUStaysInBounds(t *testing.T) {
	s := New(21).Fork("ou")
	p := &OU{Mean: 0.4, Revert: 0.05, Sigma: 0.1, Min: 0, Max: 0.9}
	for i := 0; i < 5000; i++ {
		v := p.Step(s)
		if v < 0 || v > 0.9 {
			t.Fatalf("step %d: OU out of bounds: %v", i, v)
		}
	}
}

func TestOURevertsToMean(t *testing.T) {
	s := New(22).Fork("ou2")
	p := &OU{Mean: 0.5, Revert: 0.1, Sigma: 0.02, Min: 0, Max: 1}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Step(s)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.05 {
		t.Errorf("long-run mean = %v, want ≈0.5", mean)
	}
}

// quickMedian returns the median without disturbing the caller's slice.
func quickMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// eagerFork is Fork as first written, with a generator seeded at once.
func eagerFork(seed int64, full string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(full))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func TestLazyForkMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		root := New(seed)
		eagerRoot := rand.New(rand.NewSource(seed))
		test := root.Fork("test/12")
		// Forking from a stream that has drawn, or not, changes nothing.
		_ = root.Float64()
		_ = eagerRoot.Float64()
		for _, c := range []struct {
			s    *Source
			full string
		}{
			{test.Fork("flow"), "/test/12/flow"},
			{root.Fork("ran/cell42/load"), "/ran/cell42/load"},
			{root.Fork(""), "/"},
		} {
			eager := eagerFork(seed, c.full)
			if c.s.name != c.full {
				t.Fatalf("name = %q, want %q", c.s.name, c.full)
			}
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					if got, want := c.s.Float64(), eager.Float64(); got != want {
						t.Fatalf("seed %d %s draw %d: %v, eager %v", seed, c.full, i, got, want)
					}
				case 1:
					if got, want := c.s.r().Intn(1000), eager.Intn(1000); got != want {
						t.Fatalf("seed %d %s draw %d: %v, eager %v", seed, c.full, i, got, want)
					}
				case 2:
					if got, want := c.s.Normal(0, 1), eager.NormFloat64(); got != want {
						t.Fatalf("seed %d %s draw %d: %v, eager %v", seed, c.full, i, got, want)
					}
				case 3:
					if got, want := c.s.r().ExpFloat64(), eager.ExpFloat64(); got != want {
						t.Fatalf("seed %d %s draw %d: %v, eager %v", seed, c.full, i, got, want)
					}
				default:
					if got, want := c.s.Int63(), eager.Int63(); got != want {
						t.Fatalf("seed %d %s draw %d: %v, eager %v", seed, c.full, i, got, want)
					}
				}
			}
		}
		// The root stream itself is seeded with the seed.
		for i := 0; i < 50; i++ {
			if got, want := root.Float64(), eagerRoot.Float64(); got != want {
				t.Fatalf("seed %d root draw %d: %v, eager %v", seed, i, got, want)
			}
		}
	}
}

var forkSink *Source

func TestForkWithoutDrawIsSmall(t *testing.T) {
	parent := New(3).Fork("phone/V")
	var stats runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&stats)
	before := stats.TotalAlloc
	const n = 1000
	for i := 0; i < n; i++ {
		forkSink = parent.Fork("test/12345")
	}
	runtime.ReadMemStats(&stats)
	if per := (stats.TotalAlloc - before) / n; per >= 1024 {
		t.Errorf("a Fork never drawn from allocates %d B, want < 1 KB", per)
	}
}
