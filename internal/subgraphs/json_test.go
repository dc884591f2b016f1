package subgraphs

import (
	"strings"
	"testing"
)

// TestCensusUnmarshalJSONRejects lists census JSON the decoder must
// refuse: negative counts, like the binary decoder, duplicate classes,
// which keys equal after canonicalization are, and degrees outside
// [0, math.MaxInt32], which the int32 key fields cannot hold.
func TestCensusUnmarshalJSONRejects(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"negative wedge count",
			`{"wedges":[{"k_lo":1,"k_center":2,"k_hi":1,"count":-1}],"triangles":[]}`, "count -1"},
		{"negative triangle count",
			`{"wedges":[],"triangles":[{"k1":2,"k2":2,"k3":2,"count":-3}]}`, "count -3"},
		{"duplicate wedge class",
			`{"wedges":[{"k_lo":1,"k_center":2,"k_hi":3,"count":1},{"k_lo":3,"k_center":2,"k_hi":1,"count":2}],"triangles":[]}`, "duplicate wedge"},
		{"duplicate triangle class",
			`{"wedges":[],"triangles":[{"k1":2,"k2":3,"k3":4,"count":1},{"k1":4,"k2":2,"k3":3,"count":1}]}`, "duplicate triangle"},
		{"negative wedge end degree",
			`{"wedges":[{"k_lo":-3,"k_center":2,"k_hi":5,"count":1}]}`, "wedge class k_lo=-3 k_center=2 k_hi=5: degree outside"},
		{"negative wedge center degree",
			`{"wedges":[{"k_lo":1,"k_center":-1,"k_hi":5,"count":1}]}`, "wedge class k_lo=1 k_center=-1 k_hi=5: degree outside"},
		{"oversized wedge degree",
			`{"wedges":[{"k_lo":1,"k_center":2,"k_hi":2147483648,"count":1}]}`, "wedge class k_lo=1 k_center=2 k_hi=2147483648: degree outside"},
		{"oversized triangle corner",
			`{"triangles":[{"k1":2,"k2":9000000000,"k3":3,"count":1}]}`, "triangle class k1=2 k2=9000000000 k3=3: degree outside"},
		{"negative triangle corner",
			`{"triangles":[{"k1":2,"k2":3,"k3":-7,"count":1}]}`, "triangle class k1=2 k2=3 k3=-7: degree outside"},
	} {
		var c Census
		err := c.UnmarshalJSON([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCensusUnmarshalJSONDropsZeros checks that zero-count classes are
// accepted and dropped, so the census keeps only nonzero entries.
func TestCensusUnmarshalJSONDropsZeros(t *testing.T) {
	in := `{"wedges":[{"k_lo":1,"k_center":2,"k_hi":1,"count":0},{"k_lo":3,"k_center":1,"k_hi":2,"count":4}],` +
		`"triangles":[{"k1":2,"k2":2,"k3":2,"count":0}]}`
	var c Census
	if err := c.UnmarshalJSON([]byte(in)); err != nil {
		t.Fatal(err)
	}
	want := &Census{Wedges: []WedgeCount{{WedgeKey{2, 1, 3}, 4}}}
	if !c.Equal(want) {
		t.Errorf("decoded %+v, want %+v", c, *want)
	}
}

// TestCensusUnmarshalJSONMaxDegree checks that the largest degree the
// key fields hold, math.MaxInt32, decodes and encodes unchanged.
func TestCensusUnmarshalJSONMaxDegree(t *testing.T) {
	in := `{"wedges":[{"k_lo":0,"k_center":2147483647,"k_hi":2147483647,"count":1}],` +
		`"triangles":[{"k1":2147483647,"k2":2147483647,"k3":2147483647,"count":2}]}`
	var c Census
	if err := c.UnmarshalJSON([]byte(in)); err != nil {
		t.Fatal(err)
	}
	out, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Errorf("re-encoded\n%s\nwant\n%s", out, in)
	}
}
