package subgraphs

import (
	"encoding/json"
	"fmt"
)

// The JSON form of a census lists wedge and triangle classes as explicit
// records sorted by their canonical degree keys, rather than as maps:
// encoding/json cannot key objects by struct types, and sorted arrays make
// the encoding stable — the same census always marshals to the same bytes,
// which the HTTP service relies on for cacheable, diffable responses.

// wedgeJSON is one wedge class in the stable JSON encoding.
type wedgeJSON struct {
	KLo     int   `json:"k_lo"`
	KCenter int   `json:"k_center"`
	KHi     int   `json:"k_hi"`
	Count   int64 `json:"count"`
}

// triangleJSON is one triangle class in the stable JSON encoding.
type triangleJSON struct {
	K1    int   `json:"k1"`
	K2    int   `json:"k2"`
	K3    int   `json:"k3"`
	Count int64 `json:"count"`
}

// censusJSON is the wire form of Census.
type censusJSON struct {
	Wedges    []wedgeJSON    `json:"wedges"`
	Triangles []triangleJSON `json:"triangles"`
}

// MarshalJSON encodes the census as sorted wedge and triangle class
// arrays. The output is deterministic: classes appear in increasing key
// order, as the census holds them.
func (c *Census) MarshalJSON() ([]byte, error) {
	out := censusJSON{Wedges: make([]wedgeJSON, len(c.Wedges)), Triangles: make([]triangleJSON, len(c.Triangles))}
	for i, w := range c.Wedges {
		out.Wedges[i] = wedgeJSON{int(w.Key.KLo), int(w.Key.KCenter), int(w.Key.KHi), w.Count}
	}
	for i, t := range c.Triangles {
		out.Triangles[i] = triangleJSON{int(t.Key.K1), int(t.Key.K2), int(t.Key.K3), t.Count}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the sorted-array census encoding produced by
// MarshalJSON. Keys are re-canonicalized and classes sorted on the way
// in, so hand-written JSON in any order is accepted; zero-count classes
// are dropped, and negative counts, degrees outside [0, math.MaxInt32]
// and duplicate classes are rejected.
func (c *Census) UnmarshalJSON(b []byte) error {
	var in censusJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	wedges := make([]WedgeCount, len(in.Wedges))
	for i, w := range in.Wedges {
		if !degreesFit(w.KLo, w.KCenter, w.KHi) {
			return fmt.Errorf("subgraphs: wedge class k_lo=%d k_center=%d k_hi=%d: %w", w.KLo, w.KCenter, w.KHi, errDegreeRange)
		}
		wedges[i] = WedgeCount{NewWedgeKey(w.KLo, w.KCenter, w.KHi), w.Count}
		if w.Count < 0 {
			return fmt.Errorf("subgraphs: wedge class %+v count %d in JSON", wedges[i].Key, w.Count)
		}
	}
	tris := make([]TriangleCount, len(in.Triangles))
	for i, t := range in.Triangles {
		if !degreesFit(t.K1, t.K2, t.K3) {
			return fmt.Errorf("subgraphs: triangle class k1=%d k2=%d k3=%d: %w", t.K1, t.K2, t.K3, errDegreeRange)
		}
		tris[i] = TriangleCount{NewTriangleKey(t.K1, t.K2, t.K3), t.Count}
		if t.Count < 0 {
			return fmt.Errorf("subgraphs: triangle class %+v count %d in JSON", tris[i].Key, t.Count)
		}
	}
	return c.setCanonical(wedges, tris)
}
