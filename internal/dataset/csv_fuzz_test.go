package dataset

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// csvSeeds are a table's fuzz corpus: the sample table as its writer
// writes it, the header alone, and the reader tests' malformed lines.
func csvSeeds(t testing.TB, header []string, write func(*DB, io.Writer) error, lines ...string) [][]byte {
	var buf bytes.Buffer
	if err := write(sampleDB(), &buf); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{buf.Bytes(), buf.Bytes()[:buf.Len()/2], []byte(hdr(header)), {}, []byte("a,b\n1,2\n")}
	for _, line := range lines {
		seeds = append(seeds, []byte(hdr(header)+line))
	}
	return seeds
}

// fuzzCSV checks one CSV reader on arbitrary bytes: no panic, at most
// csvAllocPerByte bytes allocated per input byte, and an accepted table
// that is a fixed point of write→read: written, read back and written
// again, it gives the same bytes.
func fuzzCSV[T any](f *testing.F, seeds [][]byte, read func(io.Reader) ([]T, error), write func(*DB, io.Writer) error, table func([]T) *DB) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, csvAllocPerByte*uint64(len(data))+64<<10; n > limit {
			t.Errorf("reading %d bytes allocated %d, over %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := write(table(rows), &first); err != nil {
			t.Fatalf("read table does not write: %v", err)
		}
		again, err := read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written table rejected: %v\n%s", err, first.Bytes())
		}
		if err := write(table(again), &second); err != nil {
			t.Fatalf("re-read table does not write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("write→read→write is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// csvAllocPerByte bounds a CSV read's allocation per input byte. The
// shortest row is its commas and a newline, one byte per field; each
// field costs encoding/csv a 16-byte string header and the row a copy of
// its line, and the decoded row and the row slices grow geometrically.
const csvAllocPerByte = 64

func FuzzReadThroughputCSV(f *testing.F) {
	seeds := csvSeeds(f, throughputHeader, (*DB).WriteThroughputCSV,
		"1,2022-08-08T16:00:00Z,Verizon,DL,notafloat,LTE,0,0,0,1,0,0,0,0,Pacific,urban,0,c,0,0\n",
		"1,2022-08-08T16:00:00+05:30,T-Mobile,UL,1e400,5G-mmWave,NaN,-0,0,1,0,0,0,1e308,Eastern,highway,0,\"a,\"\"b\",1,true\n",
		",,,,,,,,,,,,,,,,,,,\n")
	fuzzCSV(f, seeds, ReadThroughputCSV, (*DB).WriteThroughputCSV, func(rows []ThroughputSample) *DB { return &DB{Throughput: rows} })
}

func FuzzReadRTTCSV(f *testing.F) {
	seeds := csvSeeds(f, rttHeader, (*DB).WriteRTTCSV,
		"1,2022-08-08T16:00:00Z,Sprint,1,0,LTE,0,0,Pacific,0,0\n",
		"1,2022-08-08T16:00:00Z,Verizon\n",
		"1,2022-08-08T16:00:00Z,Verizon,xx,0,LTE,0,0,Pacific,0,0\n",
		"1,0000-01-01T00:30:00+01:00,AT&T,+Inf,1,5G-low,0,0.001,Central,1,0\n")
	fuzzCSV(f, seeds, ReadRTTCSV, (*DB).WriteRTTCSV, func(rows []RTTSample) *DB { return &DB{RTT: rows} })
}

func FuzzReadHandoverCSV(f *testing.F) {
	seeds := csvSeeds(f, handoverHeader, (*DB).WriteHandoverCSV,
		"1,2022-08-08T16:00:00Z,Verizon,53,6G,LTE,0\n",
		"1,yesterday,Verizon,53,LTE,LTE,0\n",
		"1,9999-12-31T23:59:59.999999999-01:00,Verizon,53,LTE,5G-mid,123.456\n")
	fuzzCSV(f, seeds, ReadHandoverCSV, (*DB).WriteHandoverCSV, func(rows []Handover) *DB { return &DB{Handovers: rows} })
}
