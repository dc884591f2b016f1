package subgraphs

// The map-keyed census delta that 3K rewiring and 3K targeting ran on
// before the dense Tracker. It is kept here only as the differential
// reference the Tracker tests compare against.

// Delta accumulates signed census changes from a sequence of edge
// insertions and removals performed at fixed node degrees. It is the
// workhorse of 3K-preserving and 3K-targeting rewiring: a degree-preserving
// double-edge swap applies four single-edge changes whose deltas telescope
// to exactly (census after − census before).
//
// The degree slice passed to the mutation methods must be the (constant)
// degree sequence of the graph before and after the whole swap; the
// intermediate graph states have different instantaneous degrees, but the
// census keys of the initial and final graphs both use deg, so the
// telescoped sum is exact.
type Delta struct {
	Wedges    map[WedgeKey]int64
	Triangles map[TriangleKey]int64
}

// NewDelta returns an empty delta.
func NewDelta() *Delta {
	return &Delta{
		Wedges:    make(map[WedgeKey]int64),
		Triangles: make(map[TriangleKey]int64),
	}
}

// Reset clears the delta for reuse.
func (d *Delta) Reset() {
	clear(d.Wedges)
	clear(d.Triangles)
}

// IsZero reports whether every accumulated count change is zero — i.e.
// whether the edge changes recorded so far preserve the 3K-distribution.
func (d *Delta) IsZero() bool {
	for _, v := range d.Wedges {
		if v != 0 {
			return false
		}
	}
	for _, v := range d.Triangles {
		if v != 0 {
			return false
		}
	}
	return true
}

func (d *Delta) addWedge(kEnd1, kCenter, kEnd2 int, sign int64) {
	k := NewWedgeKey(kEnd1, kCenter, kEnd2)
	if v := d.Wedges[k] + sign; v == 0 {
		delete(d.Wedges, k)
	} else {
		d.Wedges[k] = v
	}
}

func (d *Delta) addTriangle(a, b, c int, sign int64) {
	k := NewTriangleKey(a, b, c)
	if v := d.Triangles[k] + sign; v == 0 {
		delete(d.Triangles, k)
	} else {
		d.Triangles[k] = v
	}
}

// AdjGraph is the read surface Delta needs from a mutable graph:
// neighbor iteration and membership probes. Both the map-adjacency
// graph.Graph (the retained differential-test reference) and the CSR
// working representation satisfy it.
type AdjGraph interface {
	VisitNeighbors(u int, f func(v int) bool)
	HasEdge(u, v int) bool
}

// RemoveEdge records the census change caused by deleting edge (u,v) from
// g. It must be called while the edge is still present; the caller then
// performs g.RemoveEdge(u, v).
func (d *Delta) RemoveEdge(g AdjGraph, deg []int, u, v int) {
	d.edgeChange(g, deg, u, v, -1)
}

// AddEdge records the census change caused by inserting edge (u,v) into g.
// It must be called while the edge is still absent; the caller then
// performs g.AddEdge(u, v).
func (d *Delta) AddEdge(g AdjGraph, deg []int, u, v int) {
	d.edgeChange(g, deg, u, v, +1)
}

// edgeChange enumerates the wedges and triangles whose existence toggles
// with edge (u,v): triangles through each common neighbor w (which trade
// places with the u–w–v wedge centered at w), wedges centered at u ending
// at v, and wedges centered at v ending at u.
func (d *Delta) edgeChange(g AdjGraph, deg []int, u, v int, sign int64) {
	du, dv := deg[u], deg[v]
	g.VisitNeighbors(u, func(w int) bool {
		if w == v {
			return true
		}
		if g.HasEdge(w, v) {
			// Common neighbor: triangle {u,v,w} toggles on, wedge u–w–v
			// (centered at w) toggles off, or vice versa.
			d.addTriangle(du, dv, deg[w], sign)
			d.addWedge(du, deg[w], dv, -sign)
		} else {
			// Wedge v–u–w centered at u.
			d.addWedge(dv, du, deg[w], sign)
		}
		return true
	})
	g.VisitNeighbors(v, func(w int) bool {
		if w == u || g.HasEdge(w, u) {
			return true // common neighbors already handled from u's side
		}
		// Wedge u–v–w centered at v.
		d.addWedge(du, dv, deg[w], sign)
		return true
	})
}

// ApplyTo folds the delta into census c in place.
func (d *Delta) ApplyTo(c *mapCensus) {
	for k, v := range d.Wedges {
		if nv := c.Wedges[k] + v; nv == 0 {
			delete(c.Wedges, k)
		} else {
			c.Wedges[k] = nv
		}
	}
	for k, v := range d.Triangles {
		if nv := c.Triangles[k] + v; nv == 0 {
			delete(c.Triangles, k)
		} else {
			c.Triangles[k] = nv
		}
	}
}
