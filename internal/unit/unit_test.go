package unit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestBitRateConversions(t *testing.T) {
	r := 100 * Mbps
	if got := r.Mbps(); got != 100 {
		t.Errorf("Mbps() = %v, want 100", got)
	}
	if got := r.Gbps(); got != 0.1 {
		t.Errorf("Gbps() = %v, want 0.1", got)
	}
	if got := (2.5 * Gbps).Mbps(); got != 2500 {
		t.Errorf("Gbps→Mbps = %v, want 2500", got)
	}
}

func TestBitRateBytesIn(t *testing.T) {
	// 8 Mbps for one second delivers exactly 1 MB.
	if got := (8 * Mbps).BytesIn(time.Second); got != 1*MB {
		t.Errorf("BytesIn = %v, want 1 MB", got)
	}
	// Half a second halves the bytes.
	if got := (8 * Mbps).BytesIn(500 * time.Millisecond); got != 500*KB {
		t.Errorf("BytesIn(500ms) = %v, want 500 KB", got)
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{1.5 * Gbps, "1.50 Gbps"},
		{30 * Mbps, "30.00 Mbps"},
		{64 * Kbps, "64.00 Kbps"},
		{500, "500 bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String(%v bps) = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestBytesRateOver(t *testing.T) {
	if got := (1 * MB).RateOver(time.Second); got != 8*Mbps {
		t.Errorf("RateOver = %v, want 8 Mbps", got)
	}
	if got := (1 * MB).RateOver(0); got != 0 {
		t.Errorf("RateOver(0) = %v, want 0", got)
	}
	if got := (1 * MB).RateOver(-time.Second); got != 0 {
		t.Errorf("RateOver(neg) = %v, want 0", got)
	}
}

func TestBytesString(t *testing.T) {
	if got := (777 * GB).String(); got != "777.00 GB" {
		t.Errorf("GB String = %q", got)
	}
	if got := (2 * MB).String(); got != "2.00 MB" {
		t.Errorf("MB String = %q", got)
	}
	if got := (38 * KB).String(); got != "38.00 KB" {
		t.Errorf("KB String = %q", got)
	}
	if got := (12 * Byte).String(); got != "12 B" {
		t.Errorf("B String = %q", got)
	}
}

func TestDBLinearRoundTrip(t *testing.T) {
	f := func(g float64) bool {
		if math.Abs(g) > 200 {
			return true
		}
		back := 10 * math.Log10(DB(g).Linear())
		return math.Abs(back-g) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBKnownValues(t *testing.T) {
	if got := DB(3).Linear(); math.Abs(got-1.9953) > 1e-3 {
		t.Errorf("3 dB linear = %v, want ≈1.995", got)
	}
	if got := DB(10).Linear(); math.Abs(got-10) > 1e-9 {
		t.Errorf("10 dB linear = %v, want 10", got)
	}
	if got := DB(20).Linear(); math.Abs(got-100) > 1e-9 {
		t.Errorf("20 dB linear = %v, want 100", got)
	}
}

func TestDistances(t *testing.T) {
	if got := (5 * Kilometer).Km(); got != 5 {
		t.Errorf("Km = %v, want 5", got)
	}
	if got := Mile.Km(); math.Abs(got-1.609344) > 1e-9 {
		t.Errorf("Mile in km = %v", got)
	}
	if got := (10 * Mile).Miles(); math.Abs(got-10) > 1e-9 {
		t.Errorf("Miles = %v, want 10", got)
	}
}

func TestMetersString(t *testing.T) {
	if got := (1500 * Meter).String(); got != "1.50 km" {
		t.Errorf("String = %q", got)
	}
	if !strings.HasSuffix((42 * Meter).String(), " m") {
		t.Errorf("String = %q, want meter suffix", (42 * Meter).String())
	}
}

func TestSpeedConversions(t *testing.T) {
	v := SpeedFromMPH(60)
	if got := v.MPH(); math.Abs(got-60) > 1e-9 {
		t.Errorf("MPH round trip = %v, want 60", got)
	}
	// 60 mph covers exactly one mile in a minute.
	if got := v.DistanceIn(time.Minute).Miles(); math.Abs(got-1) > 1e-9 {
		t.Errorf("distance in 1 min = %v miles, want 1", got)
	}
}

func TestSpeedRoundTripProperty(t *testing.T) {
	f := func(mph float64) bool {
		if mph < 0 || mph > 1000 {
			return true
		}
		return math.Abs(SpeedFromMPH(mph).MPH()-mph) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMilliseconds(t *testing.T) {
	if got := Milliseconds(61 * time.Millisecond); got != 61 {
		t.Errorf("Milliseconds = %v, want 61", got)
	}
	if got := DurationFromMS(53); got != 53*time.Millisecond {
		t.Errorf("DurationFromMS = %v", got)
	}
	if got := Milliseconds(DurationFromMS(76.5)); math.Abs(got-76.5) > 1e-6 {
		t.Errorf("round trip = %v, want 76.5", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x float64) bool {
		got := Clamp(x, -1, 1)
		return got >= -1 && got <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
