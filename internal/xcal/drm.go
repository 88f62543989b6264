package xcal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// This file implements a compact binary container for capture files —
// the stand-in for the proprietary .drm format that the real study could
// only decode through Accuver's licensed XCAP-M software (§B). It is the
// one place where a capture is text: instants are written as
// ContentFormat stamps in EDT and technologies by name. Nothing in the
// reproduction reads a container back: the lanes normalise each capture
// in memory when its test ends, so only the encoder remains.

// drmMagic identifies the container; drmVersion gates format changes.
var drmMagic = [4]byte{'D', 'R', 'M', '1'}

// ErrBadDRM reports a malformed container.
var ErrBadDRM = errors.New("xcal: malformed drm container")

// drmMaxString bounds the length of a string in the container.
const drmMaxString = 1 << 16

// WriteDRM encodes the file into its binary container form.
func (f File) WriteDRM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(drmMagic[:]); err != nil {
		return err
	}
	if err := writeString(bw, f.Name); err != nil {
		return err
	}
	if err := writeString(bw, f.Op.Short()); err != nil {
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

func writeRow(w io.Writer, r Row) error {
	for _, s := range []string{contentStamp(r.Time), r.Tech.String(), r.CellID} {
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

func writeSignal(w io.Writer, s Signal) error {
	for _, str := range []string{contentStamp(s.Time), s.Event, s.FromTech.String(), s.ToTech.String(), s.FromCell, s.ToCell} {
		if err := writeString(w, str); err != nil {
			return err
		}
	}
	return writeF64(w, s.DurationMS)
}

// contentStamp renders t as the XCAL software stamps file contents:
// ContentFormat in EDT.
func contentStamp(t time.Time) string { return t.In(EDT).Format(ContentFormat) }

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

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeF64(w io.Writer, v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	_, err := w.Write(buf[:])
	return err
}
