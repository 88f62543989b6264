// Package unit defines the physical quantities used throughout the
// simulator — data rates, signal power, frequencies, distances, and
// speeds — together with conversions between the units the paper mixes
// freely (Mbps and bytes, dBm and mW, miles and kilometers, mph and m/s).
//
// All quantities are thin named float64/int64 types so arithmetic stays
// cheap, but the names keep call sites honest about what a number means.
package unit

import (
	"fmt"
	"math"
	"time"
)

// BitRate is a data rate in bits per second.
type BitRate float64

// Common bit-rate scales.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e6 * BitPerSecond
	Gbps                 = 1e9 * BitPerSecond
)

// Mbps reports the rate in megabits per second.
func (r BitRate) Mbps() float64 { return float64(r) / 1e6 }

// Gbps reports the rate in gigabits per second.
func (r BitRate) Gbps() float64 { return float64(r) / 1e9 }

// BytesIn reports how many whole bytes the rate delivers in d.
func (r BitRate) BytesIn(d time.Duration) Bytes {
	return Bytes(float64(r) * d.Seconds() / 8)
}

// String renders the rate with an adaptive scale suffix.
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2f Gbps", r.Gbps())
	case r >= Mbps:
		return fmt.Sprintf("%.2f Mbps", r.Mbps())
	case r >= Kbps:
		return fmt.Sprintf("%.2f Kbps", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.0f bps", float64(r))
	}
}

// Bytes is a byte count.
type Bytes int64

// Common byte scales.
const (
	Byte Bytes = 1
	KB         = 1000 * Byte
	MB         = 1000 * KB
	GB         = 1000 * MB
)

// Bits reports the count in bits.
func (b Bytes) Bits() float64 { return float64(b) * 8 }

// MB reports the count in (decimal) megabytes.
func (b Bytes) MB() float64 { return float64(b) / 1e6 }

// GB reports the count in (decimal) gigabytes.
func (b Bytes) GB() float64 { return float64(b) / 1e9 }

// RateOver reports the average rate needed to move b bytes in d.
func (b Bytes) RateOver(d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(b.Bits() / d.Seconds())
}

// String renders the count with an adaptive scale suffix.
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2f GB", b.GB())
	case b >= MB:
		return fmt.Sprintf("%.2f MB", b.MB())
	case b >= KB:
		return fmt.Sprintf("%.2f KB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// DBm is signal power in decibel-milliwatts (RSRP, TX power).
type DBm float64

// DB is a dimensionless power ratio in decibels (path loss, SINR, gain).
type DB float64

// Linear converts the ratio to the linear domain.
func (g DB) Linear() float64 { return math.Pow(10, float64(g)/10) }

// Meters is a distance in meters.
type Meters float64

// Common distances.
const (
	Meter     Meters = 1
	Kilometer        = 1000 * Meter
	Mile             = 1609.344 * Meter
)

// Km reports the distance in kilometers.
func (m Meters) Km() float64 { return float64(m) / 1000 }

// Miles reports the distance in statute miles.
func (m Meters) Miles() float64 { return float64(m) / float64(Mile) }

// String renders the distance with an adaptive scale suffix.
func (m Meters) String() string {
	if m >= Kilometer {
		return fmt.Sprintf("%.2f km", m.Km())
	}
	return fmt.Sprintf("%.1f m", float64(m))
}

// MetersPerSecond is a speed.
type MetersPerSecond float64

// MPH reports the speed in miles per hour.
func (v MetersPerSecond) MPH() float64 { return float64(v) * 3600 / float64(Mile) }

// SpeedFromMPH converts miles per hour to meters per second.
func SpeedFromMPH(mph float64) MetersPerSecond {
	return MetersPerSecond(mph * float64(Mile) / 3600)
}

// DistanceIn reports how far the speed carries in d.
func (v MetersPerSecond) DistanceIn(d time.Duration) Meters {
	return Meters(float64(v) * d.Seconds())
}

// Milliseconds renders a duration as fractional milliseconds, the unit
// the paper reports RTTs and handover durations in.
func Milliseconds(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DurationFromMS builds a duration from fractional milliseconds.
func DurationFromMS(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Clamp bounds x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}
