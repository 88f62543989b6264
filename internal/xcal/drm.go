package xcal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file implements a compact binary container for capture files —
// the stand-in for the proprietary .drm format that the real study could
// only decode through Accuver's licensed XCAP-M software (§B). Encoding
// and decoding round-trips File exactly, and the decoder is defensive:
// real post-processing pipelines meet truncated and corrupted captures.

// drmMagic identifies the container; drmVersion gates format changes.
var drmMagic = [4]byte{'D', 'R', 'M', '1'}

// ErrBadDRM reports a malformed container.
var ErrBadDRM = errors.New("xcal: malformed drm container")

// drmMaxString bounds decoded string lengths against corrupted inputs.
const drmMaxString = 1 << 16

// drmMaxRecords bounds decoded record counts against corrupted inputs.
const drmMaxRecords = 1 << 24

// drmShortString is the longest string body readString allocates up
// front. A longer one grows as its bytes arrive, so a corrupted length
// costs memory in proportion to the bytes actually present, not to the
// length it declares.
const drmShortString = 512

// WriteDRM encodes the file into its binary container form.
func (f File) WriteDRM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(drmMagic[:]); err != nil {
		return err
	}
	if err := writeString(bw, f.Name); err != nil {
		return err
	}
	if err := writeString(bw, f.Op); err != nil {
		return err
	}
	if err := writeString(bw, f.Label); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(f.Rows))); err != nil {
		return err
	}
	for _, r := range f.Rows {
		if err := writeRow(bw, r); err != nil {
			return err
		}
	}
	if err := writeU32(bw, uint32(len(f.Signals))); err != nil {
		return err
	}
	for _, s := range f.Signals {
		if err := writeSignal(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDRM decodes a container written by WriteDRM.
func ReadDRM(r io.Reader) (File, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return File{}, fmt.Errorf("%w: magic: %v", ErrBadDRM, err)
	}
	if magic != drmMagic {
		return File{}, fmt.Errorf("%w: bad magic %q", ErrBadDRM, magic[:])
	}
	var f File
	var err error
	if f.Name, err = readString(br); err != nil {
		return File{}, err
	}
	if f.Op, err = readString(br); err != nil {
		return File{}, err
	}
	if f.Label, err = readString(br); err != nil {
		return File{}, err
	}
	nRows, err := readU32(br)
	if err != nil {
		return File{}, err
	}
	if nRows > drmMaxRecords {
		return File{}, fmt.Errorf("%w: %d rows", ErrBadDRM, nRows)
	}
	for i := uint32(0); i < nRows; i++ {
		row, err := readRow(br)
		if err != nil {
			return File{}, fmt.Errorf("row %d: %w", i, err)
		}
		f.Rows = append(f.Rows, row)
	}
	nSig, err := readU32(br)
	if err != nil {
		return File{}, err
	}
	if nSig > drmMaxRecords {
		return File{}, fmt.Errorf("%w: %d signals", ErrBadDRM, nSig)
	}
	for i := uint32(0); i < nSig; i++ {
		sig, err := readSignal(br)
		if err != nil {
			return File{}, fmt.Errorf("signal %d: %w", i, err)
		}
		f.Signals = append(f.Signals, sig)
	}
	return f, nil
}

func writeRow(w io.Writer, r Row) error {
	for _, s := range []string{r.TimeEDT, r.Tech, r.CellID} {
		if err := writeString(w, s); err != nil {
			return err
		}
	}
	for _, v := range []float64{r.RSRP, r.SINR, r.BLER, r.Load, r.AppMbps, r.Lat, r.Lon, r.SpeedMPH} {
		if err := writeF64(w, v); err != nil {
			return err
		}
	}
	for _, v := range []uint32{uint32(r.MCS), uint32(r.CCDL), uint32(r.CCUL)} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	b := byte(0)
	if r.InHandover {
		b = 1
	}
	_, err := w.Write([]byte{b})
	return err
}

func readRow(r io.Reader) (Row, error) {
	var row Row
	var err error
	if row.TimeEDT, err = readString(r); err != nil {
		return row, err
	}
	if row.Tech, err = readString(r); err != nil {
		return row, err
	}
	if row.CellID, err = readString(r); err != nil {
		return row, err
	}
	floats := []*float64{&row.RSRP, &row.SINR, &row.BLER, &row.Load, &row.AppMbps, &row.Lat, &row.Lon, &row.SpeedMPH}
	for _, p := range floats {
		if *p, err = readF64(r); err != nil {
			return row, err
		}
	}
	ints := []*int{&row.MCS, &row.CCDL, &row.CCUL}
	for _, p := range ints {
		v, err := readU32(r)
		if err != nil {
			return row, err
		}
		*p = int(v)
	}
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return row, fmt.Errorf("%w: flags: %v", ErrBadDRM, err)
	}
	row.InHandover = b[0] == 1
	return row, nil
}

func writeSignal(w io.Writer, s Signal) error {
	for _, str := range []string{s.TimeEDT, s.Event, s.FromTech, s.ToTech, s.FromCell, s.ToCell} {
		if err := writeString(w, str); err != nil {
			return err
		}
	}
	return writeF64(w, s.DurationMS)
}

func readSignal(r io.Reader) (Signal, error) {
	var s Signal
	var err error
	strs := []*string{&s.TimeEDT, &s.Event, &s.FromTech, &s.ToTech, &s.FromCell, &s.ToCell}
	for _, p := range strs {
		if *p, err = readString(r); err != nil {
			return s, err
		}
	}
	s.DurationMS, err = readF64(r)
	return s, err
}

func writeString(w io.Writer, s string) error {
	if len(s) > drmMaxString {
		return fmt.Errorf("%w: string too long (%d)", ErrBadDRM, len(s))
	}
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > drmMaxString {
		return "", fmt.Errorf("%w: string length %d", ErrBadDRM, n)
	}
	if n <= drmShortString {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", fmt.Errorf("%w: string body: %v", ErrBadDRM, err)
		}
		return string(buf), nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(buf) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return "", fmt.Errorf("%w: string body: %v", ErrBadDRM, err)
	}
	return string(buf), nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: u32: %v", ErrBadDRM, err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeF64(w io.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := w.Write(buf[:])
	return err
}

func readF64(r io.Reader) (float64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: f64: %v", ErrBadDRM, err)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}
