package store

import (
	"bytes"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// FuzzStoreDecode hardens the store's binary decoders — the graph
// container and the profile container — against arbitrary bytes: decoding
// must never panic or over-allocate, and anything that decodes must
// re-encode and decode to the same value (one canonical form per
// artifact).
func FuzzStoreDecode(f *testing.F) {
	// Valid artifacts of both kinds as seeds, plus structured garbage.
	g := graph.NewCSR(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			f.Fatal(err)
		}
	}
	var gb bytes.Buffer
	if err := graph.WriteBinary(&gb, g, []int{10, 20, 30, 40}); err != nil {
		f.Fatal(err)
	}
	f.Add(gb.Bytes())
	for d := 0; d <= 3; d++ {
		p, err := dk.Extract(g, d)
		if err != nil {
			f.Fatal(err)
		}
		var pb bytes.Buffer
		if err := dk.WriteProfileBinary(&pb, p); err != nil {
			f.Fatal(err)
		}
		f.Add(pb.Bytes())
	}
	f.Add([]byte("DKGB\x01"))
	f.Add([]byte("DKPB\x01"))
	f.Add([]byte("DKGB\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add(gb.Bytes()[:gb.Len()/2])

	lim := graph.ReadLimits{MaxBytes: 1 << 16, MaxNodes: 1 << 12, MaxEdges: 1 << 14}
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, labels, err := graph.ReadBinaryLimit(bytes.NewReader(data), lim); err == nil {
			var re bytes.Buffer
			if err := graph.WriteBinary(&re, g, labels); err != nil {
				t.Fatalf("re-encode of decoded graph: %v", err)
			}
			g2, labels2, err := graph.ReadBinary(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			if !g2.Equal(g) || len(labels2) != len(labels) {
				t.Fatal("graph round trip not stable")
			}
		}
		if p, err := dk.ReadProfileBinary(bytes.NewReader(data)); err == nil {
			var re bytes.Buffer
			if err := dk.WriteProfileBinary(&re, p); err != nil {
				t.Fatalf("re-encode of decoded profile: %v", err)
			}
			p2, err := dk.ReadProfileBinary(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("decode of own encoding: %v", err)
			}
			if p2.D != p.D || p2.N != p.N || p2.M != p.M {
				t.Fatal("profile round trip not stable")
			}
		}
	})
}
