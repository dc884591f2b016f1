package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// binGraph builds a reproducible random simple graph via the shared
// randomGraph helper in graph_test.go.
func binGraph(n, m int, seed int64) *CSR {
	return randomGraph(rand.New(rand.NewSource(seed)), n, m)
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		g      *CSR
		labels []int
	}{
		{"empty", NewCSR(0), nil},
		{"isolated", NewCSR(5), nil},
		{"single-edge", mustGraph(t, 2, [][2]int{{0, 1}}), nil},
		{"random", binGraph(200, 600, 1), nil},
		{"labeled", mustGraph(t, 3, [][2]int{{0, 1}, {1, 2}}), []int{700, 3, 42}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, tc.g, tc.labels); err != nil {
				t.Fatal(err)
			}
			got, labels, err := ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(tc.g) {
				t.Fatalf("decoded graph differs: n=%d m=%d, want n=%d m=%d",
					got.N(), got.M(), tc.g.N(), tc.g.M())
			}
			if tc.labels == nil && labels != nil {
				t.Fatalf("labels %v, want nil", labels)
			}
			if tc.labels != nil {
				if len(labels) != len(tc.labels) {
					t.Fatalf("labels %v, want %v", labels, tc.labels)
				}
				for i := range labels {
					if labels[i] != tc.labels[i] {
						t.Fatalf("labels %v, want %v", labels, tc.labels)
					}
				}
			}
		})
	}
}

func mustGraph(t *testing.T, n int, edges [][2]int) *CSR {
	t.Helper()
	g := NewCSR(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestBinaryCanonical: equal graphs built in different edge orders encode
// to identical bytes — the property content addressing relies on.
func TestBinaryCanonical(t *testing.T) {
	a := mustGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	b := mustGraph(t, 4, [][2]int{{0, 3}, {2, 3}, {0, 1}, {2, 1}})
	var ab, bb bytes.Buffer
	if err := WriteBinary(&ab, a, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Fatal("equal graphs encoded to different bytes")
	}
}

func TestBinaryInfo(t *testing.T) {
	g := binGraph(50, 120, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	info, err := ReadBinaryInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.N != g.N() || info.M != g.M() || info.HasLabels {
		t.Fatalf("info %+v, want n=%d m=%d no labels", info, g.N(), g.M())
	}
}

// TestBinaryCorruption: every single-byte flip in the payload or trailer
// must be rejected (the CRC catches what structural validation does not).
func TestBinaryCorruption(t *testing.T) {
	g := binGraph(30, 60, 3)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	// Skip the magic/version prefix: flips there are caught by readMagic,
	// exercised separately below.
	for i := 5; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			// A flip may produce a structurally valid graph only if the
			// CRC also matched, which is what we are asserting against.
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	if _, _, err := ReadBinary(strings.NewReader("DKGX\x01rest")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err=%v, want ErrCorrupt", err)
	}
}

// TestBinaryGapOverflowRejected: a crafted neighbor gap near 2^64 must
// not wrap the bounds check and smuggle in a backward (duplicate) edge —
// even with a valid checksum.
func TestBinaryGapOverflowRejected(t *testing.T) {
	var payload []byte
	payload = append(payload, 0)                        // flags
	payload = binary.AppendUvarint(payload, 3)          // N
	payload = binary.AppendUvarint(payload, 2)          // M
	payload = binary.AppendUvarint(payload, 1)          // node 0: f=1
	payload = binary.AppendUvarint(payload, 1)          //   gap -> edge (0,1)
	payload = binary.AppendUvarint(payload, 1)          // node 1: f=1
	payload = binary.AppendUvarint(payload, ^uint64(0)) //   gap wraps prev+gap
	payload = binary.AppendUvarint(payload, 0)          // node 2: f=0
	enc := append([]byte("DKGB\x01"), payload...)
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc32.ChecksumIEEE(payload))
	enc = append(enc, trailer[:]...)
	if _, _, err := ReadBinary(bytes.NewReader(enc)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrapping gap: err=%v, want ErrCorrupt", err)
	}
}

// TestBinaryTruncation: every proper prefix fails cleanly.
func TestBinaryTruncation(t *testing.T) {
	g := binGraph(20, 40, 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, []int{5, 9, 2, 8, 1, 0, 3, 4, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for i := 0; i < len(enc); i++ {
		if _, _, err := ReadBinary(bytes.NewReader(enc[:i])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", i, len(enc))
		}
	}
}

func TestBinaryLimits(t *testing.T) {
	g := binGraph(100, 300, 11)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lim  ReadLimits
	}{
		{"nodes", ReadLimits{MaxNodes: 10}},
		{"edges", ReadLimits{MaxEdges: 10}},
		{"bytes", ReadLimits{MaxBytes: 16}},
	} {
		if _, _, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()), tc.lim); !errors.Is(err, ErrLimit) {
			t.Fatalf("%s: err=%v, want ErrLimit", tc.name, err)
		}
	}
	// At-the-limit inputs still parse.
	ok := ReadLimits{MaxNodes: g.N(), MaxEdges: g.M(), MaxBytes: int64(buf.Len())}
	if _, _, err := ReadBinaryLimit(bytes.NewReader(buf.Bytes()), ok); err != nil {
		t.Fatalf("at-limit decode failed: %v", err)
	}
}

// TestBinaryDecodedGraphUsable: a decoded graph supports mutation — the
// rewiring entry points operate on cache-loaded graphs.
func TestBinaryDecodedGraphUsable(t *testing.T) {
	g := binGraph(40, 80, 13)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e := got.EdgeAt(0)
	if !got.RemoveEdge(e.U, e.V) {
		t.Fatal("RemoveEdge failed on decoded graph")
	}
	if err := got.AddEdge(e.U, e.V); err != nil {
		t.Fatalf("AddEdge failed on decoded graph: %v", err)
	}
	if !got.Equal(g) {
		t.Fatal("mutated-back graph differs")
	}
}
