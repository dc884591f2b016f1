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
// re-canonicalized on the way in; duplicate classes and zero counts are
// rejected so every valid encoding has exactly one decoded form.
func (c *Census) UnmarshalBinary(data []byte) error {
	d := binDecoder{buf: data}
	nw := d.count("wedge classes")
	wedges := make([]WedgeCount, 0, min(nw, 1<<16))
	for i := 0; i < nw && d.err == nil; i++ {
		kc := d.count("wedge center degree")
		lo := d.count("wedge end degree")
		hi := d.count("wedge end degree")
		n := d.count64("wedge count")
		if d.err == nil && n <= 0 {
			return fmt.Errorf("subgraphs: wedge class %+v count %d", NewWedgeKey(lo, kc, hi), n)
		}
		wedges = append(wedges, WedgeCount{NewWedgeKey(lo, kc, hi), n})
	}
	nt := d.count("triangle classes")
	tris := make([]TriangleCount, 0, min(nt, 1<<16))
	for i := 0; i < nt && d.err == nil; i++ {
		k1 := d.count("triangle degree")
		k2 := d.count("triangle degree")
		k3 := d.count("triangle degree")
		n := d.count64("triangle count")
		if d.err == nil && n <= 0 {
			return fmt.Errorf("subgraphs: triangle class %+v count %d", NewTriangleKey(k1, k2, k3), n)
		}
		tris = append(tris, TriangleCount{NewTriangleKey(k1, k2, k3), n})
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
