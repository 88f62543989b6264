package logsync

import (
	"fmt"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/xcal"
)

// stampSeeds are inputs near the fast path's edges: canonical stamps,
// the calendar's edges, out-of-range fields, stray signs and separators,
// lengths one off, and stamps of other layouts.
var stampSeeds = []string{
	"08/08/2022 12:00:00.000", "02/29/2024 23:59:59.999", "02/29/2023 00:00:00.000",
	"02/29/1900 00:00:00.000", "02/29/2000 00:00:00.000", "12/31/0000 00:00:00.000",
	"13/01/2022 00:00:00.000", "00/10/2022 00:00:00.000", "04/31/2022 00:00:00.000",
	"01/01/2022 24:00:00.000", "01/01/2022 23:60:00.000", "01/01/2022 23:59:60.000",
	"01/01/2022 23:59:59,123", "01/01/+022 23:59:59.123", "01/01/2022 23:59:59.+12",
	"1/01/2022 23:59:59.1234", "01/01/2022 1:59:59.12345", "01/01/2022 23:59:59.12",
	"2022-08-10 09:00:00", "2024-02-29 23:59:59", "2023-02-29 00:00:00", "0000-01-01 00:00:00",
	"2022-13-10 09:00:00", "2022-08-32 09:00:00", "2022-08-10 24:00:00", "2022-08-10 9:00:000",
	"-022-08-10 09:00:00", "2022-08-10T09:00:00", "2022-08-10 09:00:00.5", "", "garbage",
}

func FuzzParseContentTime(f *testing.F) {
	for _, s := range stampSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseContentTime(s)
		want, wantErr := time.ParseInLocation(xcal.ContentFormat, s, xcal.EDT)
		if wantErr != nil {
			wantText := fmt.Sprintf("logsync: content time %q: %v", s, wantErr)
			if err == nil || err.Error() != wantText {
				t.Fatalf("ParseContentTime(%q) error %v, want %s", s, err, wantText)
			}
			return
		}
		if err != nil || got != want.UTC() || !got.Equal(want) {
			t.Fatalf("ParseContentTime(%q) = %v, %v; want %v", s, got, err, want.UTC())
		}
	})
}

// BenchmarkParseContentTime measures reading one XCAL row's content
// stamp back to UTC, the per-row parse of the log merge.
func BenchmarkParseContentTime(b *testing.B) {
	stamps := make([]string, 1024)
	at := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	for i := range stamps {
		stamps[i] = at.Add(time.Duration(i) * 7919 * time.Millisecond).In(xcal.EDT).Format(xcal.ContentFormat)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseContentTime(stamps[i%len(stamps)]); err != nil {
			b.Fatal(err)
		}
	}
}
