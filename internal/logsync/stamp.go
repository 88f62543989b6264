package logsync

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/xcal"
)

// ParseContentTime parses an XCAL content timestamp (fixed EDT) to UTC.
func ParseContentTime(s string) (time.Time, error) {
	if t, ok := parseContentFast(s); ok {
		return t.UTC(), nil
	}
	t, err := time.ParseInLocation(xcal.ContentFormat, s, xcal.EDT)
	if err != nil {
		return time.Time{}, fmt.Errorf("logsync: content time %q: %w", s, err)
	}
	return t.UTC(), nil
}

// parseContentFast parses the 23-byte "01/02/2006 15:04:05.000" in EDT.
// It accepts only the exact canonical rendering of ContentFormat: every
// digit and separator in place, and a date and clock that
// time.ParseInLocation accepts (month 1–12, a day that month has in that
// year, hour ≤ 23, minute and second ≤ 59). For such a string
// ParseInLocation, whose layout has no zone, returns time.Date of the
// fields in EDT, which is what the fast path builds. Anything else, an
// error included, is left to ParseInLocation, so results and error
// texts do not change.
func parseContentFast(s string) (time.Time, bool) {
	if len(s) != len(xcal.ContentFormat) ||
		s[2] != '/' || s[5] != '/' || s[10] != ' ' || s[13] != ':' || s[16] != ':' || s[19] != '.' {
		return time.Time{}, false
	}
	mo, ok1 := digits(s, 0, 2)
	d, ok2 := digits(s, 3, 5)
	y, ok3 := digits(s, 6, 10)
	h, ok4 := digits(s, 11, 13)
	mi, ok5 := digits(s, 14, 16)
	sec, ok6 := digits(s, 17, 19)
	ms, ok7 := digits(s, 20, 23)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || !ok6 || !ok7 ||
		mo < 1 || mo > 12 || d < 1 || d > daysIn(mo, y) || h > 23 || mi > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(y, time.Month(mo), d, h, mi, sec, ms*int(time.Millisecond), xcal.EDT), true
}

// digits reads s[i:j] as a decimal number of ASCII digits only.
func digits(s string, i, j int) (int, bool) {
	n := 0
	for ; i < j; i++ {
		c := s[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	return n, true
}

// daysIn reports the days of month mo (1–12) in year y of the proleptic
// Gregorian calendar, as package time counts them.
func daysIn(mo, y int) int {
	switch mo {
	case 2:
		if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	default:
		return 31
	}
}
