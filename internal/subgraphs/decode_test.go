package subgraphs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// uvarints encodes vs as the census binary form's uvarint stream.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestCensusUnmarshalBinaryRejects lists census binary sections the
// decoder must refuse. Degrees are uvarints, so the out-of-range case is
// a degree above math.MaxInt32, which the int32 key fields cannot hold.
func TestCensusUnmarshalBinaryRejects(t *testing.T) {
	const big = math.MaxInt32 + 1
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"oversized wedge center degree", uvarints(1, big, 1, 2, 1, 0),
			"wedge class k_center=2147483648 k_lo=1 k_hi=2: degree outside"},
		{"oversized wedge end degree", uvarints(1, 2, 1, 9000000000, 1, 0),
			"wedge class k_center=2 k_lo=1 k_hi=9000000000: degree outside"},
		{"wedge degree past int64", uvarints(1, 2, math.MaxUint64, 1, 1, 0),
			"wedge class k_center=2 k_lo=18446744073709551615 k_hi=1: degree outside"},
		{"oversized triangle corner", uvarints(0, 1, 2, 9000000000, 3, 1),
			"triangle class k1=2 k2=9000000000 k3=3: degree outside"},
		{"zero wedge count", uvarints(1, 2, 1, 1, 0, 0), "count 0"},
		{"truncated triangle", uvarints(0, 1, 2, 3), "truncated triangle"},
		{"trailing bytes", uvarints(0, 0, 7), "trailing"},
	} {
		var c Census
		err := c.UnmarshalBinary(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCensusUnmarshalBinaryMaxDegree checks that math.MaxInt32, the
// largest degree the key fields hold, decodes and encodes unchanged.
func TestCensusUnmarshalBinaryMaxDegree(t *testing.T) {
	const max = math.MaxInt32
	in := uvarints(1, max, 0, max, 1, 1, max, max, max, 2)
	var c Census
	if err := c.UnmarshalBinary(in); err != nil {
		t.Fatal(err)
	}
	if out := c.AppendBinary(nil); string(out) != string(in) {
		t.Errorf("re-encoded %x, want %x", out, in)
	}
}

// checkCanonical fails t unless c keeps the Census invariant: each array
// strictly increasing in canonical key order (so sorted, with unique
// keys), counts positive, and keys canonical with nonnegative degrees.
func checkCanonical(t *testing.T, c *Census) {
	t.Helper()
	for i, w := range c.Wedges {
		k := w.Key
		if w.Count <= 0 || k.KLo < 0 || k.KCenter < 0 || k.KLo > k.KHi {
			t.Fatalf("wedge class %+v count %d is not canonical", k, w.Count)
		}
		if i > 0 && c.Wedges[i-1].Key.Compare(k) >= 0 {
			t.Fatalf("wedge class %+v follows %+v", k, c.Wedges[i-1].Key)
		}
	}
	for i, tr := range c.Triangles {
		k := tr.Key
		if tr.Count <= 0 || k.K1 < 0 || k.K1 > k.K2 || k.K2 > k.K3 {
			t.Fatalf("triangle class %+v count %d is not canonical", k, tr.Count)
		}
		if i > 0 && c.Triangles[i-1].Key.Compare(k) >= 0 {
			t.Fatalf("triangle class %+v follows %+v", k, c.Triangles[i-1].Key)
		}
	}
}

// FuzzCensusDecode feeds arbitrary bytes to both census decoders. Every
// census either accepts must be canonical and must survive a round trip
// through each codec unchanged.
func FuzzCensusDecode(f *testing.F) {
	for _, g := range []*Census{
		Count(hubGraph(rand.New(rand.NewSource(3)), 16, 30)),
		Count(manyClassGraph(rand.New(rand.NewSource(5)), 16, 4)),
	} {
		js, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
		f.Add(g.AppendBinary(nil))
	}
	f.Add([]byte(`{"wedges":[{"k_lo":3,"k_center":2,"k_hi":1,"count":4},{"k_lo":1,"k_center":2,"k_hi":1,"count":0}],` +
		`"triangles":[{"k1":4,"k2":2,"k3":3,"count":1}]}`))
	f.Add([]byte(`{"wedges":[{"k_lo":-3,"k_center":2,"k_hi":5,"count":1}]}`))
	f.Add([]byte(`{"triangles":[{"k1":2,"k2":9000000000,"k3":3,"count":1}]}`))
	f.Add(uvarints(2, 2, 3, 1, 5, 1, 1, 1, 7, 1, 4, 2, 3, 1))
	f.Add(uvarints(1, math.MaxInt32, 0, math.MaxInt32+1, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func(*Census, []byte) error{(*Census).UnmarshalJSON, (*Census).UnmarshalBinary} {
			var c Census
			if decode(&c, data) != nil {
				continue
			}
			checkCanonical(t, &c)
			js, err := c.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var viaJSON, viaBin Census
			if err := viaJSON.UnmarshalJSON(js); err != nil {
				t.Fatalf("re-decoding %s: %v", js, err)
			}
			if err := viaBin.UnmarshalBinary(c.AppendBinary(nil)); err != nil {
				t.Fatalf("re-decoding binary: %v", err)
			}
			if !viaJSON.Equal(&c) || !viaBin.Equal(&c) {
				t.Fatalf("round trip changed the census %+v", c)
			}
		}
	})
}
