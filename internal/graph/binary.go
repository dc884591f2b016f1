package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary graph format ("DKGB"): the on-disk edge-list encoding of the
// persistent artifact store. The adjacency structure is written as a
// varint-delta-encoded forward CSR — for each node u, the sorted neighbors
// v > u as gaps (v1-u, v2-v1, ...) — so each edge is stored once and
// typical gaps fit in one or two bytes. A paper-scale topology is ~5-8x
// smaller than its text edge list and decodes without any string handling.
//
//	magic   "DKGB" (4 bytes)
//	version 0x01   (1 byte)
//	payload (CRC-32 protected from here):
//	  flags   1 byte (bit 0: label table present)
//	  N       uvarint  node count
//	  M       uvarint  edge count
//	  per node u = 0..N-1:
//	    f        uvarint  forward degree (# neighbors v > u)
//	    f gaps   uvarint each, all >= 1: v1-u, v2-v1, ...
//	  labels (if flag bit 0): N signed varints, delta-encoded
//	    (label_u - label_{u-1}, starting from 0)
//	trailer: CRC-32 (IEEE) of the payload, 4 bytes big-endian
//
// Both directions stream: WriteBinary never materializes the encoding and
// ReadBinary's allocations are bounded by the bytes actually read, so a
// forged header cannot trigger a large allocation.

// binaryMagic and binaryVersion identify the graph container format.
var binaryMagic = [4]byte{'D', 'K', 'G', 'B'}

const binaryVersion = 1

const labelFlag = 1 // flags bit 0: label table present

// ErrCorrupt marks binary artifacts that fail structural validation or
// checksum verification. The store's GC matches it with errors.Is to
// quarantine damaged files.
var ErrCorrupt = errors.New("corrupt binary artifact")

// WriteBinary writes c (and its optional dense-id→label table) in the
// binary graph format. labels must be nil or have length c.N(). The
// encoding is canonical: equal graphs with equal labels produce identical
// bytes regardless of construction order. CSR windows are sorted, so the
// forward-neighbor runs stream straight out of the arena with no
// per-node sort or allocation.
func WriteBinary(w io.Writer, c *CSR, labels []int) error {
	if labels != nil && len(labels) != c.N() {
		return fmt.Errorf("graph: label table has %d entries for %d nodes", len(labels), c.N())
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	var flags byte
	if labels != nil {
		flags |= labelFlag
	}
	cw.writeByte(flags)
	cw.writeUvarint(uint64(c.N()))
	cw.writeUvarint(uint64(c.M()))
	for u := 0; u < c.N(); u++ {
		// The forward neighbors v > u are the window suffix past u's
		// would-be position in its own sorted window.
		cut, _ := c.find(u, u)
		fwd := c.window(u)[cut:]
		cw.writeUvarint(uint64(len(fwd)))
		prev := u
		for _, v := range fwd {
			cw.writeUvarint(uint64(int(v) - prev))
			prev = int(v)
		}
	}
	if labels != nil {
		prev := 0
		for _, l := range labels {
			cw.writeVarint(int64(l) - int64(prev))
			prev = l
		}
	}
	if cw.err != nil {
		return cw.err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], cw.crc)
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary decodes a binary graph written by WriteBinary, returning the
// graph and its label table (nil if none was stored). Decoded edges
// arrive in sorted canonical order, so the windows fill already sorted
// and the whole materialization is O(n+m).
func ReadBinary(r io.Reader) (*CSR, []int, error) {
	return ReadBinaryLimit(r, ReadLimits{})
}

// BinaryInfo is the header summary of a binary graph artifact, readable
// without decoding (or checksum-verifying) the adjacency payload.
type BinaryInfo struct {
	N, M      int
	HasLabels bool
}

// ReadBinaryInfo reads only the header of a binary graph: node and edge
// counts plus whether a label table is present. It does not verify the
// payload checksum — use ReadBinary for a validated decode.
func ReadBinaryInfo(r io.Reader) (BinaryInfo, error) {
	if err := readMagic(r); err != nil {
		return BinaryInfo{}, err
	}
	cr := &crcReader{r: r}
	flags, err := cr.ReadByte()
	if err != nil {
		return BinaryInfo{}, corruptf("header: %v", err)
	}
	n, err := readCount(cr, "node count")
	if err != nil {
		return BinaryInfo{}, err
	}
	m, err := readCount(cr, "edge count")
	if err != nil {
		return BinaryInfo{}, err
	}
	return BinaryInfo{N: n, M: m, HasLabels: flags&labelFlag != 0}, nil
}

// ReadBinaryLimit is ReadBinary with the same resource bounds as the text
// parser, for decoding binary graphs from untrusted sources. Independent
// of any limit, decoder allocations are proportional to the bytes
// consumed, never to header-claimed sizes.
func ReadBinaryLimit(r io.Reader, lim ReadLimits) (*CSR, []int, error) {
	edges, n, labels, err := readBinaryEdges(r, lim)
	if err != nil {
		return nil, nil, err
	}
	return csrFromCanonicalEdges(n, edges), labels, nil
}

// readBinaryEdges decodes the container into its canonical-order edge
// list, applying the byte budget.
func readBinaryEdges(r io.Reader, lim ReadLimits) ([]edge32, int, []int, error) {
	cr := &countingReader{r: r}
	if lim.MaxBytes > 0 {
		cr.r = io.LimitReader(r, lim.MaxBytes+1)
	}
	edges, n, labels, err := readBinaryBody(cr, lim)
	if lim.MaxBytes > 0 && cr.n > lim.MaxBytes {
		// The budget was crossed; whatever decode error the truncation
		// produced, the limit is the root cause to report.
		return nil, 0, nil, fmt.Errorf("graph: %w: more than %d bytes", ErrLimit, lim.MaxBytes)
	}
	return edges, n, labels, err
}

// readBinaryBody decodes the container after byte-budget wrapping.
func readBinaryBody(cr io.Reader, lim ReadLimits) ([]edge32, int, []int, error) {
	if err := readMagic(cr); err != nil {
		return nil, 0, nil, err
	}
	c := &crcReader{r: cr}
	flags, err := c.ReadByte()
	if err != nil {
		return nil, 0, nil, corruptf("header: %v", err)
	}
	if flags&^byte(labelFlag) != 0 {
		return nil, 0, nil, corruptf("unknown flags %#x", flags)
	}
	n, err := readCount(c, "node count")
	if err != nil {
		return nil, 0, nil, err
	}
	m, err := readCount(c, "edge count")
	if err != nil {
		return nil, 0, nil, err
	}
	if lim.MaxNodes > 0 && n > lim.MaxNodes {
		return nil, 0, nil, fmt.Errorf("graph: %w: more than %d nodes", ErrLimit, lim.MaxNodes)
	}
	if lim.MaxEdges > 0 && m > lim.MaxEdges {
		return nil, 0, nil, fmt.Errorf("graph: %w: more than %d edges", ErrLimit, lim.MaxEdges)
	}
	// Decoded edges arrive in sorted canonical order; the slice grows with
	// the input, so a forged M cannot force a huge allocation up front.
	edges := make([]edge32, 0, min(m, 1<<20))
	for u := 0; u < n; u++ {
		f, err := readCount(c, "forward degree")
		if err != nil {
			return nil, 0, nil, err
		}
		if len(edges)+f > m {
			return nil, 0, nil, corruptf("node %d: forward degrees exceed edge count %d", u, m)
		}
		prev := u
		for i := 0; i < f; i++ {
			gap, err := c.uvarint()
			if err != nil {
				return nil, 0, nil, corruptf("node %d: neighbor gap: %v", u, err)
			}
			// Compare against the remaining headroom rather than adding:
			// prev+gap could wrap uint64 and sneak a backward edge past
			// the bound. prev < n always holds here, so n-1-prev is safe.
			if gap == 0 || gap > uint64(n-1-prev) {
				return nil, 0, nil, corruptf("node %d: neighbor gap %d out of range", u, gap)
			}
			v := prev + int(gap)
			edges = append(edges, edge32{int32(u), int32(v)})
			prev = v
		}
	}
	if len(edges) != m {
		return nil, 0, nil, corruptf("decoded %d edges, header claims %d", len(edges), m)
	}
	var labels []int
	if flags&labelFlag != 0 {
		labels = make([]int, 0, min(n, 1<<20))
		prev := int64(0)
		for u := 0; u < n; u++ {
			d, err := c.varint()
			if err != nil {
				return nil, 0, nil, corruptf("label %d: %v", u, err)
			}
			prev += d
			if prev < 0 {
				return nil, 0, nil, corruptf("label %d is negative", u)
			}
			labels = append(labels, int(prev))
		}
	}
	sum := c.finish()
	var trailer [4]byte
	if err := c.readRaw(trailer[:]); err != nil {
		return nil, 0, nil, corruptf("checksum trailer: %v", err)
	}
	if got := binary.BigEndian.Uint32(trailer[:]); got != sum {
		return nil, 0, nil, corruptf("checksum mismatch: payload %08x, trailer %08x", sum, got)
	}
	return edges, n, labels, nil
}

// readMagic consumes and checks the 5-byte magic/version prefix. It runs
// before the crcReader takes over buffering, so it reads the raw stream.
func readMagic(r io.Reader) error {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return corruptf("magic: %v", err)
	}
	if [4]byte(hdr[:4]) != binaryMagic {
		return corruptf("bad magic %q", hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return corruptf("unsupported version %d", hdr[4])
	}
	return nil
}

// readCount reads a uvarint bounded to a non-negative int that also fits
// int32, the node-id width of the CSR representation.
func readCount(r *crcReader, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, corruptf("%s: %v", what, err)
	}
	if v > math.MaxInt32 {
		return 0, corruptf("%s %d exceeds int32", what, v)
	}
	return int(v), nil
}

func corruptf(format string, args ...any) error {
	return fmt.Errorf("graph: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// crcWriter appends varints to a buffered writer while accumulating the
// payload CRC; the first write error sticks.
type crcWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [binary.MaxVarintLen64]byte
}

func (c *crcWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	_, c.err = c.w.Write(p)
}

func (c *crcWriter) writeByte(b byte) {
	c.buf[0] = b
	c.write(c.buf[:1])
}

func (c *crcWriter) writeUvarint(v uint64) {
	n := binary.PutUvarint(c.buf[:], v)
	c.write(c.buf[:n])
}

func (c *crcWriter) writeVarint(v int64) {
	n := binary.PutVarint(c.buf[:], v)
	c.write(c.buf[:n])
}

// crcReader is a buffered byte reader that accumulates the payload CRC
// in bulk: consumed spans are hashed chunk-at-a-time on refill (and once
// more in finish for the partial tail), not per byte — per-byte
// crc32.Update calls alone would cost more than the whole varint parse.
type crcReader struct {
	r    io.Reader
	buf  [32 * 1024]byte
	n    int // valid bytes in buf
	pos  int // next unconsumed byte
	crc  uint32
	done bool // finish was called; no further hashing
}

func (c *crcReader) ReadByte() (byte, error) {
	if c.pos == c.n {
		if err := c.refill(); err != nil {
			return 0, err
		}
	}
	b := c.buf[c.pos]
	c.pos++
	return b, nil
}

// refill hashes the fully consumed chunk and loads the next one.
func (c *crcReader) refill() error {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, c.buf[:c.n])
	c.pos, c.n = 0, 0
	for {
		n, err := c.r.Read(c.buf[:])
		if n > 0 {
			c.n = n
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// finish hashes the consumed prefix of the current chunk, sealing the
// payload CRC. Unconsumed buffered bytes (the checksum trailer) stay
// readable via readRaw.
func (c *crcReader) finish() uint32 {
	if !c.done {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, c.buf[:c.pos])
		c.done = true
	}
	return c.crc
}

// readRaw reads bytes after finish without hashing them: first from the
// buffered remainder, then from the underlying reader.
func (c *crcReader) readRaw(p []byte) error {
	k := copy(p, c.buf[c.pos:c.n])
	c.pos += k
	if k < len(p) {
		if _, err := io.ReadFull(c.r, p[k:]); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes an unsigned varint straight off the internal buffer —
// the single-byte case that dominates gap-encoded adjacency never leaves
// the fast path, and nothing goes through an io interface call. This is
// where the binary format earns its decode-speed margin over text.
func (c *crcReader) uvarint() (uint64, error) {
	if c.pos < c.n {
		if b := c.buf[c.pos]; b < 0x80 {
			c.pos++
			return uint64(b), nil
		}
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if c.pos == c.n {
			if err := c.refill(); err != nil {
				return 0, err
			}
		}
		b := c.buf[c.pos]
		c.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, errVarintOverflow
}

// varint decodes a zigzag-encoded signed varint.
func (c *crcReader) varint() (int64, error) {
	ux, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

var errVarintOverflow = errors.New("varint overflows 64 bits")
