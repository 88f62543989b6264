package xcal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzReadDRM feeds arbitrary bytes to ReadDRM, the decoder for .drm
// archives read back from disk. No input may panic or make it allocate
// more than a small multiple of the input, and an accepted capture must
// be a fixed point of its encoding: decoded, re-encoded and decoded
// again, it re-encodes to the same bytes.
func FuzzReadDRM(f *testing.F) {
	rec := NewRecorder(opForTest())
	now := testStart()
	rec.StartFile("UL", now, zoneForTest())
	st := stateForTest()
	for i := 0; i < 20; i++ {
		st.Time = now
		rec.Observe(tickForTest(), st, wpForTest(), 55, 4096)
		now = now.Add(tickForTest())
	}
	for _, file := range []File{sampleFile(), {Name: "T_RTT_20220810_110000.drm", Op: "T", Label: "RTT"}, rec.CloseFile()} {
		var buf bytes.Buffer
		if err := file.WriteDRM(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	// A header that declares the longest string and then ends.
	f.Add(binary.LittleEndian.AppendUint32([]byte("DRM1"), drmMaxString))
	f.Add([]byte("NOPE...."))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A decoded row takes 144 bytes for at least 89 input bytes and a
		// signal 104 bytes for at least 32, and the record slices grow
		// geometrically; the constant covers the 4 KiB read buffer and an
		// up-front short string.
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		file, err := ReadDRM(r)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(data))+16<<10; n > limit {
			t.Errorf("decoding %d bytes allocated %d, over %d", len(data), n, limit)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := file.WriteDRM(&enc); err != nil {
			t.Fatalf("decoded capture does not encode: %v", err)
		}
		again, err := ReadDRM(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded capture rejected: %v", err)
		}
		var enc2 bytes.Buffer
		if err := again.WriteDRM(&enc2); err != nil {
			t.Fatalf("re-decoded capture does not encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Errorf("encoding is not a fixed point:\n%x\n%x", enc.Bytes(), enc2.Bytes())
		}
	})
}
