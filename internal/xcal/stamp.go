package xcal

import "time"

// contentTime renders t in EDT as ContentFormat: t.In(EDT).Format(ContentFormat).
// It writes the digits directly instead of walking the layout as
// time.Time.Format does. For a year in 0–9999, which the layout renders
// as four zero-padded digits, the bytes are Format's; any other year
// takes Format itself.
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
	put2(b[6:], y/100)
	put2(b[8:], y%100)
	b[10] = ' '
	put2(b[11:], h)
	b[13] = ':'
	put2(b[14:], mi)
	b[16] = ':'
	put2(b[17:], s)
	b[19] = '.'
	ms := t.Nanosecond() / int(time.Millisecond)
	b[20] = byte('0' + ms/100)
	put2(b[21:], ms%100)
	//lint:allow hotalloc — the row's one stamp string, the allocation time.Format made before
	return string(b[:])
}

// put2 writes v (0–99) as two digits.
func put2(b []byte, v int) {
	b[0] = byte('0' + v/10)
	b[1] = byte('0' + v%10)
}
