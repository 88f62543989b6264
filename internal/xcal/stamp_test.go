package xcal

import (
	"testing"
	"time"
)

// Unix seconds of 0001-01-01 and of 10000-01-01, UTC: the fuzz instants
// span years 1–9999 and, by EDT's offset, a few hours either side.
const (
	fuzzMinUnix = -62135596800
	fuzzMaxUnix = 253402300800
)

// checkStamp compares the content-stamp formatter against
// time.Time.Format.
func checkStamp(t *testing.T, at time.Time) {
	t.Helper()
	if got, want := contentTime(at), at.In(EDT).Format(ContentFormat); got != want {
		t.Fatalf("contentTime(%v) = %q, want %q", at, got, want)
	}
}

func FuzzFormatStamps(f *testing.F) {
	f.Add(int64(1659974400), int64(0))              // 2022-08-08 16:00 UTC
	f.Add(int64(1660000000), int64(999_999_999))    // a fraction that must truncate
	f.Add(int64(-30610224000), int64(0))            // 1000-01-01
	f.Add(int64(fuzzMaxUnix-1), int64(123_456_789)) // 9999-12-31 23:59:59 UTC
	f.Add(int64(fuzzMinUnix), int64(0))             // 0001-01-01, year 0 in EDT
	f.Add(int64(fuzzMaxUnix+3600), int64(0))        // year 10000 in UTC, 9999 in EDT
	f.Add(int64(-1<<62), int64(-5))                 // far outside: Format's fallback
	f.Fuzz(func(t *testing.T, sec, nsec int64) {
		if sec < fuzzMinUnix || sec > fuzzMaxUnix+86400 {
			// Fold into the span, keeping the raw value now and then for
			// years Format renders with a sign or five digits.
			if sec%7 != 0 {
				span := int64(fuzzMaxUnix + 86400 - fuzzMinUnix)
				sec = fuzzMinUnix + (sec%span+span)%span
			}
		}
		checkStamp(t, time.Unix(sec, nsec%1e9))
	})
}

func TestStampsMatchFormat(t *testing.T) {
	at := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	for i := 0; i < 200_000; i++ {
		checkStamp(t, at)
		at = at.Add(7919*time.Millisecond + time.Duration(i%1000)*time.Microsecond)
	}
	for _, y := range []int{-1, 0, 1, 999, 1000, 9999, 10000, 123456} {
		checkStamp(t, time.Date(y, 12, 31, 22, 30, 15, 987_654_321, time.UTC))
		checkStamp(t, time.Date(y, 1, 1, 1, 2, 3, 4, time.UTC))
	}
}
