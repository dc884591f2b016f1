package subgraphs

import (
	"encoding/binary"
	"fmt"
)

// The binary form of a census is the 3K section of a stored dK-profile
// (see internal/dk's profile container for the framing and checksum):
// wedge and triangle class records as plain uvarints, sorted by canonical
// degree key so the same census always encodes to the same bytes.
//
//	nWedges   uvarint
//	per wedge, sorted by (KCenter, KLo, KHi):
//	  kCenter kLo kHi count   (4 uvarints, count >= 1)
//	nTriangles uvarint
//	per triangle, sorted by (K1, K2, K3):
//	  k1 k2 k3 count          (4 uvarints, count >= 1)

// MarshalBinary encodes the census in its canonical binary form.
// Zero-count classes are omitted.
func (c *Census) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(nil), nil
}

// AppendBinary appends the canonical binary encoding of c to dst and
// returns the extended slice.
func (c *Census) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(c.Wedges)))
	for _, w := range c.Wedges {
		dst = binary.AppendUvarint(dst, uint64(w.Key.KCenter))
		dst = binary.AppendUvarint(dst, uint64(w.Key.KLo))
		dst = binary.AppendUvarint(dst, uint64(w.Key.KHi))
		dst = binary.AppendUvarint(dst, uint64(w.Count))
	}
	dst = binary.AppendUvarint(dst, uint64(len(c.Triangles)))
	for _, t := range c.Triangles {
		dst = binary.AppendUvarint(dst, uint64(t.Key.K1))
		dst = binary.AppendUvarint(dst, uint64(t.Key.K2))
		dst = binary.AppendUvarint(dst, uint64(t.Key.K3))
		dst = binary.AppendUvarint(dst, uint64(t.Count))
	}
	return dst
}

// UnmarshalBinary decodes the encoding produced by MarshalBinary. Keys are
// re-canonicalized on the way in; duplicate classes, zero counts and
// degrees above math.MaxInt32 are rejected so every valid encoding has
// exactly one decoded form.
func (c *Census) UnmarshalBinary(data []byte) error {
	d := binDecoder{buf: data}
	nw := d.count("wedge classes")
	wedges := make([]WedgeCount, 0, min(nw, 1<<16))
	for i := 0; i < nw; i++ {
		kc := d.uvarint("wedge center degree")
		lo := d.uvarint("wedge end degree")
		hi := d.uvarint("wedge end degree")
		n := d.count64("wedge count")
		if d.err != nil {
			break
		}
		if !degreesFit(kc, lo, hi) {
			return fmt.Errorf("subgraphs: wedge class k_center=%d k_lo=%d k_hi=%d: %w", kc, lo, hi, errDegreeRange)
		}
		k := NewWedgeKey(int(lo), int(kc), int(hi))
		if n <= 0 {
			return fmt.Errorf("subgraphs: wedge class %+v count %d", k, n)
		}
		wedges = append(wedges, WedgeCount{k, n})
	}
	nt := d.count("triangle classes")
	tris := make([]TriangleCount, 0, min(nt, 1<<16))
	for i := 0; i < nt; i++ {
		k1 := d.uvarint("triangle degree")
		k2 := d.uvarint("triangle degree")
		k3 := d.uvarint("triangle degree")
		n := d.count64("triangle count")
		if d.err != nil {
			break
		}
		if !degreesFit(k1, k2, k3) {
			return fmt.Errorf("subgraphs: triangle class k1=%d k2=%d k3=%d: %w", k1, k2, k3, errDegreeRange)
		}
		k := NewTriangleKey(int(k1), int(k2), int(k3))
		if n <= 0 {
			return fmt.Errorf("subgraphs: triangle class %+v count %d", k, n)
		}
		tris = append(tris, TriangleCount{k, n})
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("subgraphs: %d trailing bytes after census", len(d.buf))
	}
	return c.setCanonical(wedges, tris)
}

// binDecoder reads uvarints from a byte slice with sticky error handling.
type binDecoder struct {
	buf []byte
	err error
}

func (d *binDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("subgraphs: truncated %s", what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint bounded to int.
func (d *binDecoder) count(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > uint64(int(^uint(0)>>1)) {
		d.err = fmt.Errorf("subgraphs: %s %d overflows int", what, v)
		return 0
	}
	return int(v)
}

// count64 reads a uvarint bounded to int64.
func (d *binDecoder) count64(what string) int64 {
	v := d.uvarint(what)
	if d.err == nil && v > uint64(^uint64(0)>>1) {
		d.err = fmt.Errorf("subgraphs: %s %d overflows int64", what, v)
		return 0
	}
	return int64(v)
}
