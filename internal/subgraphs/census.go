// Package subgraphs implements exact censuses of small connected subgraphs
// keyed by the degrees of their nodes — the raw material of the paper's
// 3K-distribution — together with the Tracker's incremental census
// deltas for rewiring moves, which make 3K-preserving and 3K-targeting
// rewiring tractable (a full recount per rewiring step would be
// hopeless).
//
// Wedges are counted as induced open two-paths: a path a–c–b where a and b
// are not adjacent. Triangles are 3-cliques. With this convention the
// paper's inclusion identity holds exactly: summing wedge and triangle
// counts around an edge recovers the joint degree distribution (each
// (k1,k2)-edge is covered (k1−1) times from its k1 side).
package subgraphs

import (
	"repro/internal/graph"
)

// WedgeKey identifies a wedge class by node degrees: a path end–center–end
// with end degrees KLo <= KHi (swapping the two ends is an isomorphism, so
// the key is canonical).
type WedgeKey struct {
	KLo, KCenter, KHi int
}

// NewWedgeKey canonicalizes (end1, center, end2) degree arguments.
func NewWedgeKey(kEnd1, kCenter, kEnd2 int) WedgeKey {
	if kEnd1 > kEnd2 {
		kEnd1, kEnd2 = kEnd2, kEnd1
	}
	return WedgeKey{kEnd1, kCenter, kEnd2}
}

// TriangleKey identifies a triangle class by sorted node degrees
// K1 <= K2 <= K3.
type TriangleKey struct {
	K1, K2, K3 int
}

// NewTriangleKey canonicalizes three degree arguments.
func NewTriangleKey(a, b, c int) TriangleKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return TriangleKey{a, b, c}
}

// Census holds degree-keyed counts of wedges and triangles — the paper's
// 3K-distribution in count form.
type Census struct {
	Wedges    map[WedgeKey]int64
	Triangles map[TriangleKey]int64
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{
		Wedges:    make(map[WedgeKey]int64),
		Triangles: make(map[TriangleKey]int64),
	}
}

// TotalWedges returns the total number of wedges across all classes.
func (c *Census) TotalWedges() int64 {
	var t int64
	for _, v := range c.Wedges {
		t += v
	}
	return t
}

// TotalTriangles returns the total number of triangles across all classes.
func (c *Census) TotalTriangles() int64 {
	var t int64
	for _, v := range c.Triangles {
		t += v
	}
	return t
}

// Clone returns a deep copy.
func (c *Census) Clone() *Census {
	out := &Census{
		Wedges:    make(map[WedgeKey]int64, len(c.Wedges)),
		Triangles: make(map[TriangleKey]int64, len(c.Triangles)),
	}
	for k, v := range c.Wedges {
		out.Wedges[k] = v
	}
	for k, v := range c.Triangles {
		out.Triangles[k] = v
	}
	return out
}

// Equal reports whether two censuses have identical nonzero counts.
func (c *Census) Equal(o *Census) bool {
	if !equalCounts(c.Wedges, o.Wedges) {
		return false
	}
	return equalCounts(c.Triangles, o.Triangles)
}

func equalCounts[K comparable](a, b map[K]int64) bool {
	for k, v := range a {
		if v != 0 && b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if v != 0 && a[k] != v {
			return false
		}
	}
	return true
}

// Count computes the exact wedge/triangle census of s.
//
// It runs on the same machinery as the rewiring Tracker: node degrees are
// interned into a compact class table, counts accumulate in class-indexed
// dense arrays (packed-key maps above denseLimit), triangles come from a
// linear merge of sorted CSR neighbor windows per canonical edge — with
// O(1) bitset probes once an endpoint reaches DefaultBitsetThreshold —
// and wedges from per-center neighbor-class histograms, with each
// triangle's three adjacent end-pairs subtracted to keep the induced
// (open two-path) convention. Compared to the per-center pair enumeration
// it replaces, this eliminates the deg² HasEdge binary searches that made
// hub-heavy power-law graphs fall off a cliff at d=3 extraction.
func Count(s graph.Adjacency) *Census {
	n := s.N()
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = s.Degree(u)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Degree class table, ascending in degree so class order is degree
	// order (the wedge-end canonicalization relies on it).
	classOf := make([]int32, maxDeg+1)
	for i := range classOf {
		classOf[i] = -1
	}
	for _, d := range deg {
		classOf[d] = 0
	}
	classDeg := make([]int, 0, 16)
	for d, seen := range classOf {
		if seen == 0 {
			classOf[d] = int32(len(classDeg))
			classDeg = append(classDeg, d)
		}
	}
	nc := len(classDeg)
	cls := make([]int32, n)
	for u := 0; u < n; u++ {
		cls[u] = classOf[deg[u]]
	}
	// Bitsets for hub membership probes, as in the Tracker mirror.
	words := (n + 63) / 64
	bits := make([][]uint64, n)
	for u := 0; u < n; u++ {
		if deg[u] >= DefaultBitsetThreshold {
			bs := make([]uint64, words)
			for _, v := range s.Neighbors(u) {
				bs[uint(v)>>6] |= 1 << (uint(v) & 63)
			}
			bits[u] = bs
		}
	}

	// Dense accumulators carry touched-index lists so the final emission
	// costs O(touched), not an O(nc³) scan over multi-megabyte arrays. An
	// index may register more than once (a count cancelling to zero and
	// coming back); emission consumes entries destructively, so duplicates
	// cannot double-count — the TrackerDelta.Drain convention.
	dense := nc*nc*nc <= denseLimit
	var wArr, tArr []int64
	var wTouch, tTouch []int32
	var mW, mT map[uint64]int64
	if dense {
		wArr = make([]int64, nc*nc*nc)
		tArr = make([]int64, nc*nc*nc)
	} else {
		mW = make(map[uint64]int64)
		mT = make(map[uint64]int64)
	}
	addW := func(e1, cc, e2 int32, v int64) {
		lo, hi := e1, e2
		if lo > hi {
			lo, hi = hi, lo
		}
		if dense {
			idx := (int32(nc)*cc+lo)*int32(nc) + hi
			if wArr[idx] == 0 {
				wTouch = append(wTouch, idx)
			}
			wArr[idx] += v
		} else {
			mW[uint64(lo)<<42|uint64(cc)<<21|uint64(hi)] += v
		}
	}
	addT := func(a, b, c int32, v int64) {
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		if dense {
			idx := (int32(nc)*a+b)*int32(nc) + c
			if tArr[idx] == 0 {
				tTouch = append(tTouch, idx)
			}
			tArr[idx] += v
		} else {
			mT[uint64(a)<<42|uint64(b)<<21|uint64(c)] += v
		}
	}

	// Triangles: every canonical edge (u,v), u < v, contributes its common
	// neighbors w > v, so each triangle {u<v<w} is found exactly once (from
	// the edge between its two smallest nodes). Each found triangle also
	// debits the three wedge classes its adjacent end-pairs would otherwise
	// inflate in the histogram pass below.
	triangle := func(u, v int, w int32) {
		cu, cv, cw := cls[u], cls[v], cls[w]
		addT(cu, cv, cw, 1)
		addW(cv, cu, cw, -1) // centered at u
		addW(cu, cv, cw, -1) // centered at v
		addW(cu, cw, cv, -1) // centered at w
	}
	for u := 0; u < n; u++ {
		adjU := s.Neighbors(u)
		for i, v32 := range adjU {
			v := int(v32)
			if v <= u {
				continue
			}
			// Common neighbors w > v of u and v. adjU[i+1:] is already the
			// window > v on u's side (sorted, and v sits at index i).
			wu := adjU[i+1:]
			adjV := s.Neighbors(v)
			wv := adjV[searchPast(adjV, v32):]
			switch {
			case bits[u] != nil && (bits[v] == nil || len(wv) <= len(wu)):
				for _, w := range wv {
					if bsHas(bits[u], w) {
						triangle(u, v, w)
					}
				}
			case bits[v] != nil:
				for _, w := range wu {
					if bsHas(bits[v], w) {
						triangle(u, v, w)
					}
				}
			default:
				for len(wu) > 0 && len(wv) > 0 {
					switch {
					case wu[0] < wv[0]:
						wu = wu[1:]
					case wv[0] < wu[0]:
						wv = wv[1:]
					default:
						triangle(u, v, wu[0])
						wu, wv = wu[1:], wv[1:]
					}
				}
			}
		}
	}

	// Wedges: per center, a neighbor-class histogram turns every unordered
	// neighbor pair into a class-pair count in O(deg + touched²) instead of
	// deg² adjacency probes; the triangle pass already subtracted the
	// adjacent pairs.
	cnt := make([]int64, nc)
	touched := make([]int32, 0, 64)
	for center := 0; center < n; center++ {
		nbrs := s.Neighbors(center)
		if len(nbrs) < 2 {
			continue
		}
		for _, v := range nbrs {
			c := cls[v]
			if cnt[c] == 0 {
				touched = append(touched, c)
			}
			cnt[c]++
		}
		cc := cls[center]
		for i, a := range touched {
			ha := cnt[a]
			if ha > 1 {
				addW(a, cc, a, ha*(ha-1)/2)
			}
			for _, b := range touched[i+1:] {
				addW(a, cc, b, ha*cnt[b])
			}
		}
		for _, a := range touched {
			cnt[a] = 0
		}
		touched = touched[:0]
	}

	// Decode class indices back to degree-keyed maps — the same boundary
	// conversion as TrackerDelta.Drain.
	c := &Census{
		Wedges:    make(map[WedgeKey]int64, len(wTouch)+len(mW)),
		Triangles: make(map[TriangleKey]int64, len(tTouch)+len(mT)),
	}
	if dense {
		for _, i := range wTouch {
			v := wArr[i]
			if v == 0 {
				continue
			}
			wArr[i] = 0
			idx := int(i)
			hi := idx % nc
			lo := idx / nc % nc
			cc := idx / (nc * nc)
			c.Wedges[WedgeKey{classDeg[lo], classDeg[cc], classDeg[hi]}] = v
		}
		for _, i := range tTouch {
			v := tArr[i]
			if v == 0 {
				continue
			}
			tArr[i] = 0
			idx := int(i)
			c3 := idx % nc
			c2 := idx / nc % nc
			c1 := idx / (nc * nc)
			c.Triangles[TriangleKey{classDeg[c1], classDeg[c2], classDeg[c3]}] = v
		}
		return c
	}
	for key, v := range mW {
		if v != 0 {
			c.Wedges[WedgeKey{classDeg[key>>42], classDeg[key>>21&packMask], classDeg[key&packMask]}] = v
		}
	}
	for key, v := range mT {
		if v != 0 {
			c.Triangles[TriangleKey{classDeg[key>>42], classDeg[key>>21&packMask], classDeg[key&packMask]}] = v
		}
	}
	return c
}

// bsHas probes membership of w in a node bitset.
func bsHas(bs []uint64, w int32) bool {
	return bs[uint(w)>>6]&(1<<(uint(w)&63)) != 0
}

// searchPast returns the index of the first element of the sorted slice a
// strictly greater than v.
func searchPast(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
