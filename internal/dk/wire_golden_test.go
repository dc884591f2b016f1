package dk_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// goldenHubGraph is a spanning random tree plus one node adjacent to the
// first half of the others plus random chords: top degrees well past
// subgraphs.DefaultBitsetThreshold.
func goldenHubGraph(rng *rand.Rand, n, m int) *graph.CSR {
	g := graph.NewCSR(n)
	add := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	for i := 1; i < n; i++ {
		add(i, rng.Intn(i))
	}
	for v := 1; v < n/2; v++ {
		add(0, v)
	}
	for g.M() < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// goldenManyClassGraph is a random tree on n nodes whose first hubs
// nodes are topped up to degrees 4, 5, …: more than hubs distinct degrees.
func goldenManyClassGraph(rng *rand.Rand, n, hubs int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	for k := 0; k < hubs; k++ {
		for g.Degree(k) < 4+k {
			if v := rng.Intn(n); v != k && !g.HasEdge(k, v) {
				if err := g.AddEdge(k, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// goldenInputs are the fixed graphs whose wire bytes TestCensusWireGolden
// pins: a hub graph, a small Skitter, and a graph with more than 101
// degree classes (nc³ above 2²⁰).
func goldenInputs(t *testing.T) []struct {
	name string
	g    *graph.CSR
} {
	t.Helper()
	sk, err := datasets.Skitter(datasets.SkitterConfig{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *graph.CSR
	}{
		{"hub", goldenHubGraph(rand.New(rand.NewSource(3)), 400, 1400)},
		{"skitter300", sk},
		{"manyclass", goldenManyClassGraph(rand.New(rand.NewSource(5)), 1000, 150)},
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestCensusWireGolden pins the exact bytes of the census JSON, the
// census binary section and the whole binary dK-profile for fixed
// inputs. Any change to counting order, emission order or either codec
// that alters a single byte fails here.
func TestCensusWireGolden(t *testing.T) {
	want := map[string][3]string{
		"hub": {
			"c0101d8e79612aa01818dfee0c2f476a71d24f684003ed5c04a3018c94a3d36b",
			"a313802e1bac8fb60be2f416952288e9064fe6ca664b7b6462e4e0a921682b24",
			"42358564fd129c26e2ccb94c4074602e6f21727879469550aadf4e3d272a28d7",
		},
		"skitter300": {
			"263d87967a85e2f021e97d4d7116e48ffb05541cac4a66b007fad2d6a9a4aa96",
			"bca6c21b8644b6501f4de612446309a795a42501833e72c16248a303b1da1047",
			"1ec80c1592c8d6cd19fd6a3b07aba604e7763d8a328bdafcd7e2aac9bc96f442",
		},
		"manyclass": {
			"a4d26a4091f23463228dac2dfd97e853d98d064af1e81e52fe82c50617d4673e",
			"47eff9afcc75d51dd08f9ef724df36c1cd23dbb3127dbe1da42af73b27d855ff",
			"dc7322eec1e3dbe38e5a244c356313c1c0637efb2e134c355b06273759c4d55e",
		},
	}
	for _, in := range goldenInputs(t) {
		p, err := dk.Extract(in.g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if in.name == "manyclass" && len(p.Degrees.Count) <= 101 {
			t.Fatalf("%s: %d degree classes, want > 101", in.name, len(p.Degrees.Count))
		}
		js, err := p.Census.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var prof bytes.Buffer
		if err := dk.WriteProfileBinary(&prof, p); err != nil {
			t.Fatal(err)
		}
		got := [3]string{sha(js), sha(p.Census.AppendBinary(nil)), sha(prof.Bytes())}
		if got != want[in.name] {
			t.Errorf("%s (%d classes): wire hashes\n got %q\nwant %q", in.name, len(p.Degrees.Count), got, want[in.name])
		}
	}
}

// TestCensusDecodeUnsortedCanonical feeds both codecs a census with its
// classes in reverse order and every key's degrees permuted, and checks
// that each decodes to the canonical census.
func TestCensusDecodeUnsortedCanonical(t *testing.T) {
	g := goldenHubGraph(rand.New(rand.NewSource(3)), 400, 1400)
	c := subgraphs.Count(g)
	canonJSON, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	canonBin := c.AppendBinary(nil)

	var wire struct {
		Wedges []struct {
			KLo     int   `json:"k_lo"`
			KCenter int   `json:"k_center"`
			KHi     int   `json:"k_hi"`
			Count   int64 `json:"count"`
		} `json:"wedges"`
		Triangles []struct {
			K1    int   `json:"k1"`
			K2    int   `json:"k2"`
			K3    int   `json:"k3"`
			Count int64 `json:"count"`
		} `json:"triangles"`
	}
	if err := json.Unmarshal(canonJSON, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Wedges) < 2 || len(wire.Triangles) < 2 {
		t.Fatalf("census too small: %d wedge, %d triangle classes", len(wire.Wedges), len(wire.Triangles))
	}
	slices.Reverse(wire.Wedges)
	slices.Reverse(wire.Triangles)
	var bin []byte
	bin = binary.AppendUvarint(bin, uint64(len(wire.Wedges)))
	for i := range wire.Wedges {
		w := &wire.Wedges[i]
		w.KLo, w.KHi = w.KHi, w.KLo
		for _, v := range []int{w.KCenter, w.KLo, w.KHi, int(w.Count)} {
			bin = binary.AppendUvarint(bin, uint64(v))
		}
	}
	bin = binary.AppendUvarint(bin, uint64(len(wire.Triangles)))
	for i := range wire.Triangles {
		tr := &wire.Triangles[i]
		tr.K1, tr.K2, tr.K3 = tr.K3, tr.K1, tr.K2
		for _, v := range []int{tr.K1, tr.K2, tr.K3, int(tr.Count)} {
			bin = binary.AppendUvarint(bin, uint64(v))
		}
	}
	unsorted, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}

	var fromJSON, fromBin subgraphs.Census
	if err := fromJSON.UnmarshalJSON(unsorted); err != nil {
		t.Fatal(err)
	}
	if err := fromBin.UnmarshalBinary(bin); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*subgraphs.Census{"json": &fromJSON, "binary": &fromBin} {
		if !d.Equal(c) {
			t.Errorf("%s: unsorted input decoded to a different census", name)
		}
		js, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, canonJSON) || !bytes.Equal(d.AppendBinary(nil), canonBin) {
			t.Errorf("%s: unsorted input did not re-encode to the canonical bytes", name)
		}
	}
}
