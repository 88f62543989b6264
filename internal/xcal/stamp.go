package xcal

import "time"

// The stamp formatters below append the digits of ContentFormat and
// LoggerFormat directly instead of walking the layout as
// time.Time.Format does. For a year in 0–9999, which every layout
// renders as four zero-padded digits, the bytes are those of
// t.In(loc).Format(layout); any other year takes Format itself.

// contentTime renders t in EDT as ContentFormat: t.In(EDT).Format(ContentFormat).
func contentTime(t time.Time) string {
	t = t.In(EDT)
	y, mo, d := t.Date()
	if y < 0 || y > 9999 {
		return t.Format(ContentFormat)
	}
	h, mi, s := t.Clock()
	var b [len(ContentFormat)]byte
	put2(b[0:], int(mo))
	b[2] = '/'
	put2(b[3:], d)
	b[5] = '/'
	put4(b[6:], y)
	b[10] = ' '
	putClock(b[11:], h, mi, s)
	b[19] = '.'
	ms := t.Nanosecond() / int(time.Millisecond)
	b[20] = byte('0' + ms/100)
	put2(b[21:], ms%100)
	//lint:allow hotalloc — the row's one stamp string, the allocation time.Format made before
	return string(b[:])
}

// loggerTime renders t in loc as LoggerFormat: t.In(loc).Format(LoggerFormat).
func loggerTime(t time.Time, loc *time.Location) string {
	t = t.In(loc)
	y, mo, d := t.Date()
	if y < 0 || y > 9999 {
		return t.Format(LoggerFormat)
	}
	h, mi, s := t.Clock()
	var b [len(LoggerFormat)]byte
	put4(b[0:], y)
	b[4] = '-'
	put2(b[5:], int(mo))
	b[7] = '-'
	put2(b[8:], d)
	b[10] = ' '
	putClock(b[11:], h, mi, s)
	//lint:allow hotalloc — the row's one stamp string, the allocation time.Format made before
	return string(b[:])
}

// putClock writes "15:04:05".
func putClock(b []byte, h, mi, s int) {
	put2(b[0:], h)
	b[2] = ':'
	put2(b[3:], mi)
	b[5] = ':'
	put2(b[6:], s)
}

// put2 writes v (0–99) as two digits.
func put2(b []byte, v int) {
	b[0] = byte('0' + v/10)
	b[1] = byte('0' + v%10)
}

// put4 writes v (0–9999) as four digits.
func put4(b []byte, v int) {
	put2(b[0:], v/100)
	put2(b[2:], v%100)
}
