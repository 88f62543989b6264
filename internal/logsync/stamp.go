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

// parseLoggerTime parses a naive xcal.LoggerFormat stamp in loc. It is
// time.ParseInLocation(xcal.LoggerFormat, s, loc), result and error.
func parseLoggerTime(s string, loc *time.Location) (time.Time, error) {
	if t, ok := parseLoggerFast(s, loc); ok {
		return t, nil
	}
	return time.ParseInLocation(xcal.LoggerFormat, s, loc)
}

// The fast paths below accept only the exact canonical rendering of their
// layout: every digit and separator in place, and a date and clock that
// time.ParseInLocation accepts (month 1–12, a day that month has in that
// year, hour ≤ 23, minute and second ≤ 59). For such a string
// ParseInLocation, whose layout has no zone, returns time.Date of the
// fields in loc, which is what the fast paths build. Anything else, an
// error included, is left to ParseInLocation, so results and error texts
// do not change.

// parseContentFast parses the 23-byte "01/02/2006 15:04:05.000" in EDT.
func parseContentFast(s string) (time.Time, bool) {
	if len(s) != len(xcal.ContentFormat) ||
		s[2] != '/' || s[5] != '/' || s[10] != ' ' || s[13] != ':' || s[16] != ':' || s[19] != '.' {
		return time.Time{}, false
	}
	mo, ok1 := digits(s, 0, 2)
	d, ok2 := digits(s, 3, 5)
	y, ok3 := digits(s, 6, 10)
	ms, ok4 := digits(s, 20, 23)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return time.Time{}, false
	}
	return fastDate(s, y, mo, d, 11, ms*int(time.Millisecond), xcal.EDT)
}

// parseLoggerFast parses the 19-byte "2006-01-02 15:04:05" in loc.
func parseLoggerFast(s string, loc *time.Location) (time.Time, bool) {
	if len(s) != len(xcal.LoggerFormat) || s[4] != '-' || s[7] != '-' || s[10] != ' ' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	y, ok1 := digits(s, 0, 4)
	mo, ok2 := digits(s, 5, 7)
	d, ok3 := digits(s, 8, 10)
	if !ok1 || !ok2 || !ok3 {
		return time.Time{}, false
	}
	return fastDate(s, y, mo, d, 11, 0, loc)
}

// fastDate validates a date and the "15:04:05" clock at s[at:] and
// builds the instant in loc.
func fastDate(s string, y, mo, d, at, nsec int, loc *time.Location) (time.Time, bool) {
	h, ok1 := digits(s, at, at+2)
	mi, ok2 := digits(s, at+3, at+5)
	sec, ok3 := digits(s, at+6, at+8)
	if !ok1 || !ok2 || !ok3 || mo < 1 || mo > 12 || d < 1 || d > daysIn(mo, y) || h > 23 || mi > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(y, time.Month(mo), d, h, mi, sec, nsec, loc), true
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
