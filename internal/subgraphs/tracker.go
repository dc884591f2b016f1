// Census tracking for the rewiring hot paths: 3K-preserving rewiring,
// 3K targeting and the census-based exploration objectives.
//
// A map-keyed delta pays a map-hash on every wedge/triangle class it
// touches and a HasEdge probe per neighbor — per-proposal costs that
// dominate rewiring, where almost every proposal is evaluated and
// rejected. Tracker is the dense engine: degrees are interned into a
// compact class table once, count changes accumulate in
// degree-class-indexed arrays (degree keys appear only at the Census
// boundary, in Drain), and common-neighbor classification runs
// directly on the CSR's sorted neighbor windows — a linear merge for
// ordinary nodes, O(1) bitset probes for nodes above a degree threshold.
// The CSR working representation IS the tracker's sorted adjacency; no
// second mirror copy is maintained.
//
// Because SwapDelta is read-only (edge toggles are virtualized instead of
// applied), many candidate swaps can be evaluated concurrently against one
// Tracker, each into its own TrackerDelta — the foundation of the batched
// parallel proposal loop in internal/generate — and a rewiring objective
// can score a move before the move touches the graph. CensusGap holds a
// target census in the same class layout, so scoring a delta against it
// is a walk over the delta's touched slots.
package subgraphs

import (
	"repro/internal/graph"
)

// DefaultBitsetThreshold is the fixed degree at or above which a node
// additionally keeps a bitset for O(1) membership probes. Below it,
// sorted-merge and binary search win on cache locality.
const DefaultBitsetThreshold = 64

// denseLimit bounds the class-indexed accumulator size (entries per
// shape) and the ordered class-pair lookup table (nc² entries). Dense
// accumulators are sized by *observed* adjacent class pairs — npairs·nc
// entries, not nc³ — so even graphs with hundreds of degree classes
// stay on the dense path; genuinely extreme degree diversity falls back
// to packed-key maps, trading speed for bounded memory. Variable so
// tests can force the fallback path.
var denseLimit = 1 << 20

// Tracker holds the shared, read-only-during-evaluation state for dense
// census deltas over a graph with a fixed degree sequence: the degree
// class table, the observed class-pair index, and per-hub bitsets. The
// degree sequence must be constant across all tracked mutations (true
// for double-edge swaps, the only moves evaluated at depth 3), because
// census keys of intermediate states use the fixed degrees.
//
// Neighbor reads go straight to the CSR's sorted windows, so the graph
// itself is the mirror. The bitsets are the only derived adjacency
// state: every mutation of the underlying CSR must be paired with the
// matching Add/Remove/ApplySwap call to keep them coherent.
type Tracker struct {
	g         *graph.CSR
	nc        int        // degree class count
	dense     bool       // pair-sized arrays fit denseLimit, else map fallback
	cls       []int32    // node -> degree class (ascending in degree)
	classDeg  []int32    // degree class -> degree
	pid       []int32    // ordered class pair (a*nc+b) -> dense pair id, -1 unobserved
	pairA     []int32    // pair id -> first class of the ordered pair
	pairB     []int32    // pair id -> second class of the ordered pair
	npairs    int        // ordered observed pair count
	bits      [][]uint64 // per-node bitset for threshold-degree nodes, else nil
	words     int        // bitset length in uint64 words
	threshold int
}

// NewTracker builds a Tracker over g with the fixed degree sequence deg
// (which must equal g.DegreeSequence()) and the default bitset threshold.
func NewTracker(g *graph.CSR, deg []int) *Tracker {
	return NewTrackerThreshold(g, deg, DefaultBitsetThreshold)
}

// NewTrackerThreshold is NewTracker with an explicit bitset degree
// threshold (0 or negative gives every non-isolated node a bitset).
func NewTrackerThreshold(g *graph.CSR, deg []int, threshold int) *Tracker {
	n := g.N()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	classOf := make([]int32, maxDeg+1)
	for i := range classOf {
		classOf[i] = -1
	}
	for _, d := range deg {
		classOf[d] = 0
	}
	classDeg := make([]int32, 0, 16)
	for d, seen := range classOf {
		if seen == 0 {
			classOf[d] = int32(len(classDeg))
			classDeg = append(classDeg, int32(d))
		}
	}
	nc := len(classDeg)
	t := &Tracker{
		g:         g,
		nc:        nc,
		cls:       make([]int32, n),
		classDeg:  classDeg,
		bits:      make([][]uint64, n),
		words:     (n + 63) / 64,
		threshold: threshold,
	}
	for u := 0; u < n; u++ {
		t.cls[u] = classOf[deg[u]]
		if deg[u] >= threshold {
			bs := make([]uint64, t.words)
			for _, v := range g.Neighbors(u) {
				bs[uint(v)>>6] |= 1 << (uint(v) & 63)
			}
			t.bits[u] = bs
		}
	}
	// Index the observed adjacent class pairs, both orders. JDD-preserving
	// swaps can only ever create edges whose class pair is already
	// observed, so the dense accumulators need npairs·nc entries instead
	// of nc³; anything that does introduce a fresh pair (general swaps,
	// Add) routes through the per-delta overflow map.
	if nc*nc <= denseLimit {
		t.pid = make([]int32, nc*nc)
		for i := range t.pid {
			t.pid[i] = -1
		}
		for u := 0; u < n; u++ {
			cu := t.cls[u]
			for _, v := range g.Neighbors(u) {
				if int(v) < u {
					continue
				}
				cv := t.cls[v]
				t.observePair(cu, cv)
				if cu != cv {
					t.observePair(cv, cu)
				}
			}
		}
		t.dense = t.npairs*nc <= denseLimit
	}
	return t
}

// observePair registers the ordered class pair (a,b) if unseen.
func (t *Tracker) observePair(a, b int32) {
	k := int(a)*t.nc + int(b)
	if t.pid[k] < 0 {
		t.pid[k] = int32(t.npairs)
		t.pairA = append(t.pairA, a)
		t.pairB = append(t.pairB, b)
		t.npairs++
	}
}

// adj returns u's sorted neighbor window — the CSR arena itself.
func (t *Tracker) adj(u int) []int32 { return t.g.Neighbors(u) }

// has reports adjacency, preferring a bitset probe from either side and
// falling back to binary search in the shorter sorted window.
func (t *Tracker) has(a, b int) bool {
	if bs := t.bits[b]; bs != nil {
		return bs[uint(a)>>6]&(1<<(uint(a)&63)) != 0
	}
	if bs := t.bits[a]; bs != nil {
		return bs[uint(b)>>6]&(1<<(uint(b)&63)) != 0
	}
	s, x := t.adj(a), int32(b)
	if sb := t.adj(b); len(sb) < len(s) {
		s, x = sb, int32(a)
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// Add syncs the bitsets with an insertion of edge (u,v) into the CSR.
// The caller performs (or has performed) the matching graph mutation —
// the windows themselves are the graph's.
func (t *Tracker) Add(u, v int) {
	if bs := t.bits[u]; bs != nil {
		bs[uint(v)>>6] |= 1 << (uint(v) & 63)
	}
	if bs := t.bits[v]; bs != nil {
		bs[uint(u)>>6] |= 1 << (uint(u) & 63)
	}
}

// Remove syncs the bitsets with a deletion of edge (u,v) from the CSR.
func (t *Tracker) Remove(u, v int) {
	if bs := t.bits[u]; bs != nil {
		bs[uint(v)>>6] &^= 1 << (uint(v) & 63)
	}
	if bs := t.bits[v]; bs != nil {
		bs[uint(u)>>6] &^= 1 << (uint(u) & 63)
	}
}

// ApplySwap commits the double-edge swap (u,v),(x,y) → (u,y),(x,v) to
// the bitsets after the caller accepted it (and applied it to the CSR).
func (t *Tracker) ApplySwap(u, v, x, y int) {
	t.Remove(u, v)
	t.Remove(x, y)
	t.Add(u, y)
	t.Add(x, v)
}

// TrackerDelta accumulates signed census count changes in degree-class
// space. One TrackerDelta may be reused across many evaluations (Reset,
// or SwapDelta which resets implicitly); concurrent evaluations need one
// TrackerDelta per goroutine, all sharing the same Tracker.
type TrackerDelta struct {
	t *Tracker
	// Dense path: accumulators indexed by (observed ordered class pair,
	// third class) — npairs·nc entries — plus touched-index lists so
	// Reset and IsZero cost O(touched), not O(size). An index may appear
	// in the list more than once (a count that cancels to zero and is
	// touched again re-registers); IsZero and Reset tolerate that, and
	// every reader that sums entries (Drain, EachWedge, CensusGap) first
	// compacts the lists so duplicates cannot double-count. Classes whose
	// pair is not in the observed-pair index overflow into lazily
	// allocated packed-key maps, so generality is kept without paying nc³
	// memory.
	wedges, tris   []int64
	wTouch, tTouch []int32
	mWedges, mTris map[uint64]int64 // fallback when !t.dense, overflow when dense
	// wVals/tVals hold the slot values parallel to wTouch/tTouch once
	// compact has deduplicated the touched lists.
	wVals, tVals []int64
}

// NewDelta returns an empty accumulator bound to t.
func (t *Tracker) NewDelta() *TrackerDelta {
	d := &TrackerDelta{t: t}
	if t.dense {
		size := t.npairs * t.nc
		d.wedges = make([]int64, size)
		d.tris = make([]int64, size)
	} else {
		d.mWedges = make(map[uint64]int64)
		d.mTris = make(map[uint64]int64)
	}
	return d
}

// Reset clears the accumulator for reuse.
func (d *TrackerDelta) Reset() {
	if d.t.dense {
		for _, i := range d.wTouch {
			d.wedges[i] = 0
		}
		for _, i := range d.tTouch {
			d.tris[i] = 0
		}
		d.wTouch = d.wTouch[:0]
		d.tTouch = d.tTouch[:0]
	}
	if d.mWedges != nil {
		clear(d.mWedges)
	}
	if d.mTris != nil {
		clear(d.mTris)
	}
}

// IsZero reports whether every accumulated count change is zero — i.e.
// whether the recorded edge changes preserve the 3K-distribution.
func (d *TrackerDelta) IsZero() bool {
	if d.t.dense {
		for _, i := range d.wTouch {
			if d.wedges[i] != 0 {
				return false
			}
		}
		for _, i := range d.tTouch {
			if d.tris[i] != 0 {
				return false
			}
		}
	}
	return len(d.mWedges) == 0 && len(d.mTris) == 0
}

// Drain folds the accumulated changes into census c — the one place
// class indices convert back to degree keys — and leaves the accumulator
// empty.
func (d *TrackerDelta) Drain(c *Census) {
	d.compact()
	ws := make([]WedgeCount, 0, len(d.wTouch)+len(d.mWedges))
	for j, i := range d.wTouch {
		ws = append(ws, WedgeCount{d.t.wedgeAt(i), d.wVals[j]})
		d.wedges[i] = 0
	}
	for key, v := range d.mWedges {
		ws = append(ws, WedgeCount{d.t.packedWedge(key), v})
	}
	ts := make([]TriangleCount, 0, len(d.tTouch)+len(d.mTris))
	for j, i := range d.tTouch {
		ts = append(ts, TriangleCount{d.t.triangleAt(i), d.tVals[j]})
		d.tris[i] = 0
	}
	for key, v := range d.mTris {
		ts = append(ts, TriangleCount{d.t.packedTriangle(key), v})
	}
	d.wTouch, d.tTouch = d.wTouch[:0], d.tTouch[:0]
	clear(d.mWedges)
	clear(d.mTris)
	c.Wedges = addClasses(c.Wedges, ws)
	c.Triangles = addClasses(c.Triangles, ts)
}

// addClasses returns the canonical class array a plus the changes d
// (unique keys, any order), without the classes that reach zero.
func addClasses[K ClassKey[K]](a, d []ClassCount[K]) []ClassCount[K] {
	sortClasses(d)
	out := make([]ClassCount[K], 0, len(a)+len(d))
	Join(a, d, func(k K, x, y int64) {
		if x+y != 0 {
			out = append(out, ClassCount[K]{k, x + y})
		}
	})
	return out
}

// addCount adds v to m[k], deleting the entry when it reaches zero.
func addCount[K comparable](m map[K]int64, k K, v int64) {
	if nv := m[k] + v; nv == 0 {
		delete(m, k)
	} else {
		m[k] = nv
	}
}

// compact rewrites the dense touched lists so that every nonzero slot
// appears exactly once and zero slots not at all, with the values in
// wVals/tVals. The accumulated changes themselves are unchanged, and a
// compacted delta compacts to itself.
func (d *TrackerDelta) compact() {
	d.wTouch, d.wVals = compactTouched(d.wedges, d.wTouch, d.wVals)
	d.tTouch, d.tVals = compactTouched(d.tris, d.tTouch, d.tVals)
}

// compactTouched drops zero and repeated slots from touch: each kept
// slot is zeroed in arr while the walk runs, so a repeat reads zero, and
// restored afterwards from vals.
func compactTouched(arr []int64, touch []int32, vals []int64) ([]int32, []int64) {
	k := 0
	vals = vals[:0]
	for _, i := range touch {
		if v := arr[i]; v != 0 {
			touch[k] = i
			k++
			vals = append(vals, v)
			arr[i] = 0
		}
	}
	touch = touch[:k]
	for j, i := range touch {
		arr[i] = vals[j]
	}
	return touch, vals
}

// wedgeAt decodes a dense wedge slot (pair id of (center, low end) times
// nc plus the high end's class) to its degree key.
func (t *Tracker) wedgeAt(i int32) WedgeKey {
	p, hi := int(i)/t.nc, int(i)%t.nc
	return WedgeKey{t.classDeg[t.pairB[p]], t.classDeg[t.pairA[p]], t.classDeg[hi]}
}

// triangleAt decodes a dense triangle slot to its degree key.
func (t *Tracker) triangleAt(i int32) TriangleKey {
	p, c3 := int(i)/t.nc, int(i)%t.nc
	return TriangleKey{t.classDeg[t.pairA[p]], t.classDeg[t.pairB[p]], t.classDeg[c3]}
}

// packedWedge decodes a packed (low end, center, high end) class key.
func (t *Tracker) packedWedge(key uint64) WedgeKey {
	return WedgeKey{t.classDeg[key>>42], t.classDeg[key>>21&packMask], t.classDeg[key&packMask]}
}

// packedTriangle decodes a packed sorted corner class key.
func (t *Tracker) packedTriangle(key uint64) TriangleKey {
	return TriangleKey{t.classDeg[key>>42], t.classDeg[key>>21&packMask], t.classDeg[key&packMask]}
}

// EachWedge calls f once for every wedge class whose count the
// accumulated changes alter, with the class's degree key and the signed
// change.
func (d *TrackerDelta) EachWedge(f func(k WedgeKey, v int64)) {
	d.compact()
	for j, i := range d.wTouch {
		f(d.t.wedgeAt(i), d.wVals[j])
	}
	for key, v := range d.mWedges {
		f(d.t.packedWedge(key), v)
	}
}

const packMask = 1<<21 - 1

// addWedge accumulates a wedge class change: ends e1, e2 (canonicalized;
// classDeg is ascending so class order is degree order), center cc. On
// the dense path the slot is indexed by the observed ordered pair
// (center, low end) — both of the wedge's edges have observed class
// pairs, so the lookup only misses when an edge change introduced a
// class pair absent from the initial graph; those overflow to the map.
func (d *TrackerDelta) addWedge(e1, cc, e2 int32, sign int64) {
	lo, hi := e1, e2
	if lo > hi {
		lo, hi = hi, lo
	}
	if d.t.dense {
		if p := d.t.pid[int(cc)*d.t.nc+int(lo)]; p >= 0 {
			idx := p*int32(d.t.nc) + hi
			if d.wedges[idx] == 0 {
				d.wTouch = append(d.wTouch, idx)
			}
			d.wedges[idx] += sign
			return
		}
		if d.mWedges == nil {
			d.mWedges = make(map[uint64]int64)
		}
	}
	key := uint64(lo)<<42 | uint64(cc)<<21 | uint64(hi)
	if v := d.mWedges[key] + sign; v == 0 {
		delete(d.mWedges, key)
	} else {
		d.mWedges[key] = v
	}
}

// addTriangle accumulates a triangle class change for corners a, b, c.
// Dense slots are indexed by the observed ordered pair (a,b) of the
// sorted corner classes; a triangle's corners are pairwise adjacent, so
// the pair is observed unless an edge change introduced a new pair.
func (d *TrackerDelta) addTriangle(a, b, c int32, sign int64) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if d.t.dense {
		if p := d.t.pid[int(a)*d.t.nc+int(b)]; p >= 0 {
			idx := p*int32(d.t.nc) + c
			if d.tris[idx] == 0 {
				d.tTouch = append(d.tTouch, idx)
			}
			d.tris[idx] += sign
			return
		}
		if d.mTris == nil {
			d.mTris = make(map[uint64]int64)
		}
	}
	key := uint64(a)<<42 | uint64(b)<<21 | uint64(c)
	if v := d.mTris[key] + sign; v == 0 {
		delete(d.mTris, key)
	} else {
		d.mTris[key] = v
	}
}

// AddEdgeDelta accumulates the census change of inserting edge (u,v)
// into the graph's current state ((u,v) must be absent). It does not
// reset d first, so single-edge deltas compose by telescoping.
func (t *Tracker) AddEdgeDelta(d *TrackerDelta, u, v int) {
	t.edgeChange(d, u, v, +1, -1, -1)
}

// RemoveEdgeDelta accumulates the census change of deleting edge (u,v)
// ((u,v) must be present in the graph).
func (t *Tracker) RemoveEdgeDelta(d *TrackerDelta, u, v int) {
	t.edgeChange(d, u, v, -1, -1, -1)
}

// SwapDelta resets d and accumulates the exact census change of the
// double-edge swap (u,v),(x,y) → (u,y),(x,v), read-only: the four edge
// toggles are virtualized against the graph instead of applied, so
// concurrent SwapDelta calls on one Tracker are safe (one TrackerDelta
// per goroutine). Preconditions (the structural validity the rewiring
// proposal already checks): u,v,x,y distinct, (u,v) and (x,y) present,
// (u,y) and (x,v) absent.
func (t *Tracker) SwapDelta(d *TrackerDelta, u, v, x, y int) {
	d.Reset()
	// Telescoped single-edge changes; each op's virtual state differs
	// from the graph only on swap pairs, and only pairs touching the
	// op's own endpoints matter, giving one excluded neighbor per side:
	//   remove (u,v): graph state exactly.
	//   remove (x,y): (u,v) gone, but it touches neither x nor y.
	//   add (u,y):    (u,v),(x,y) gone → v not a neighbor of u, x not of y.
	//   add (x,v):    likewise y not a neighbor of x, u not of v;
	//                 (u,y) now present but touches neither x nor v.
	t.edgeChange(d, u, v, -1, -1, -1)
	t.edgeChange(d, x, y, -1, -1, -1)
	t.edgeChange(d, u, y, +1, v, x)
	t.edgeChange(d, x, v, +1, y, u)
}

// SwapDeltaJDD is SwapDelta specialized to the orientation in which the
// swap trivially preserves the joint degree distribution because
// cls[v] == cls[y] (for the other 2K-preserving orientation,
// cls[u] == cls[x], call it with the flipped arguments (v,u,y,x) — the
// same swap by symmetry). With the degrees of the replaced endpoints
// equal, the four telescoped edge ops of SwapDelta cancel class-wise
// everywhere except on the symmetric difference of N(v) and N(y): a
// common neighbor w sees edge w–v's and w–y's contexts trade places at
// identical class keys, so the whole merge over N(u) and N(x) — the
// expensive side when u or x is a hub — disappears, leaving one merged
// walk over adj(v) and adj(y) with membership probes only on the
// symmetric difference. Same preconditions as SwapDelta.
func (t *Tracker) SwapDeltaJDD(d *TrackerDelta, u, v, x, y int) {
	d.Reset()
	a, b, c := t.cls[u], t.cls[v], t.cls[x]
	V, Y := t.adj(v), t.adj(y)
	i, j := 0, 0
	for i < len(V) || j < len(Y) {
		var w int32
		var ds int64 // +1: w ∈ N(y) only; -1: w ∈ N(v) only
		switch {
		case j >= len(Y) || (i < len(V) && V[i] < Y[j]):
			w, ds = V[i], -1
			i++
		case i >= len(V) || Y[j] < V[i]:
			w, ds = Y[j], +1
			j++
		default: // common neighbor of v and y: exact cancellation
			i++
			j++
			continue
		}
		switch int(w) {
		case u, x:
			// u appears only on the V side (the removed edge u–v; (u,y) is
			// absent) and x only on the Y side — both fully excluded by the
			// ops' exclusion parameters.
			continue
		case v, y:
			// Edge v–y exists: only the b-centered wedge ends survive.
			d.addWedge(a, b, b, ds)
			d.addWedge(c, b, b, -ds)
			continue
		}
		cw := t.cls[w]
		if t.has(int(w), u) {
			d.addTriangle(a, b, cw, ds)
			d.addWedge(a, cw, b, -ds)
			d.addWedge(b, a, cw, -ds)
		} else {
			d.addWedge(a, b, cw, ds)
		}
		if t.has(int(w), x) {
			d.addTriangle(c, b, cw, -ds)
			d.addWedge(c, cw, b, ds)
			d.addWedge(b, c, cw, ds)
		} else {
			d.addWedge(c, b, cw, -ds)
		}
	}
}

// Has reports whether edge (a,b) is present — an O(1) bitset probe when
// either endpoint is above the degree threshold, a binary search in the
// shorter sorted window otherwise. It mirrors graph.HasEdge exactly as
// long as every graph mutation was paired with the matching bitset
// update.
func (t *Tracker) Has(a, b int) bool {
	return t.has(a, b)
}

// edgeChange enumerates, in class space, the wedges and triangles whose
// existence toggles with edge (a,b): triangles through common neighbors
// (trading places with the wedge centered at the common neighbor), and
// wedges centered at a and at b through exclusive neighbors. exA/exB
// (-1 = none) name one node virtually not adjacent to a (resp. b), which
// is how SwapDelta expresses intermediate states without mutating the
// graph.
func (t *Tracker) edgeChange(d *TrackerDelta, a, b int, sign int64, exA, exB int) {
	if t.bits[a] == nil && t.bits[b] == nil {
		t.mergeChange(d, a, b, sign, exA, exB)
		return
	}
	ca, cb := t.cls[a], t.cls[b]
	for _, w32 := range t.adj(a) {
		w := int(w32)
		if w == b || w == exA {
			continue
		}
		if w != exB && t.has(w, b) {
			d.addTriangle(ca, cb, t.cls[w], sign)
			d.addWedge(ca, t.cls[w], cb, -sign)
		} else {
			d.addWedge(cb, ca, t.cls[w], sign)
		}
	}
	for _, w32 := range t.adj(b) {
		w := int(w32)
		if w == a || w == exB {
			continue
		}
		if w != exA && t.has(w, a) {
			continue // common neighbor, handled from a's side
		}
		d.addWedge(ca, cb, t.cls[w], sign)
	}
}

// mergeChange is edgeChange as a single linear merge of the two sorted
// neighbor windows — the ordinary-degree path, with no membership probes
// at all.
func (t *Tracker) mergeChange(d *TrackerDelta, a, b int, sign int64, exA, exB int) {
	ca, cb := t.cls[a], t.cls[b]
	A, B := t.adj(a), t.adj(b)
	i, j := 0, 0
	for i < len(A) && j < len(B) {
		wa, wb := int(A[i]), int(B[j])
		switch {
		case wa < wb:
			i++
			if wa != b && wa != exA {
				d.addWedge(cb, ca, t.cls[wa], sign)
			}
		case wb < wa:
			j++
			if wb != a && wb != exB {
				d.addWedge(ca, cb, t.cls[wb], sign)
			}
		default: // common neighbor
			i++
			j++
			w := wa
			aHas, bHas := w != exA, w != exB
			switch {
			case aHas && bHas:
				d.addTriangle(ca, cb, t.cls[w], sign)
				d.addWedge(ca, t.cls[w], cb, -sign)
			case aHas:
				d.addWedge(cb, ca, t.cls[w], sign)
			case bHas:
				d.addWedge(ca, cb, t.cls[w], sign)
			}
		}
	}
	for ; i < len(A); i++ {
		if w := int(A[i]); w != b && w != exA {
			d.addWedge(cb, ca, t.cls[w], sign)
		}
	}
	for ; j < len(B); j++ {
		if w := int(B[j]); w != a && w != exB {
			d.addWedge(ca, cb, t.cls[w], sign)
		}
	}
}

// SwapTriangles reports, read-only, every triangle the double-edge swap
// (u,v),(x,y) → (u,y),(x,v) destroys or creates: f(a, b, w, sign) with
// (a,b) the toggled edge, w the common neighbor closing the triangle and
// sign −1 for a lost triangle, +1 for a gained one. The four edge
// toggles are virtualized as in SwapDelta, so summing the calls per node
// gives each node's exact triangle change. Same preconditions as
// SwapDelta.
func (t *Tracker) SwapTriangles(u, v, x, y int, f func(a, b, w, sign int)) {
	t.commonNeighbors(u, v, -1, -1, -1, f)
	t.commonNeighbors(x, y, -1, -1, -1, f)
	t.commonNeighbors(u, y, v, x, +1, f)
	t.commonNeighbors(x, v, y, u, +1, f)
}

// commonNeighbors calls f(a, b, w, sign) for every common neighbor w of
// a and b, with exA (exB) virtually not adjacent to a (b): a merge of
// the two sorted windows, or a walk over the shorter window with
// membership probes when either endpoint keeps a bitset.
func (t *Tracker) commonNeighbors(a, b, exA, exB, sign int, f func(a, b, w, sign int)) {
	A, B := t.adj(a), t.adj(b)
	if t.bits[a] == nil && t.bits[b] == nil {
		i, j := 0, 0
		for i < len(A) && j < len(B) {
			switch wa, wb := int(A[i]), int(B[j]); {
			case wa < wb:
				i++
			case wb < wa:
				j++
			default:
				i++
				j++
				if wa != exA && wa != exB {
					f(a, b, wa, sign)
				}
			}
		}
		return
	}
	walk, other := A, b
	if len(B) < len(A) {
		walk, other = B, a
	}
	for _, w32 := range walk {
		if w := int(w32); w != a && w != b && w != exA && w != exB && t.has(w, other) {
			f(a, b, w, sign)
		}
	}
}

// CensusGap holds the class-wise count difference current − target
// between the tracked graph's census and a target census, in the
// Tracker's slot layout, so that scoring or committing a TrackerDelta
// walks only the delta's touched slots. Classes the graph cannot reach —
// some degree is not in the class table — are a constant, folded into
// fixed. With the Tracker's fixed degree sequence the gap is exact under
// any committed sequence of swaps.
type CensusGap struct {
	t              *Tracker
	wedges, tris   []int64          // dense path, indexed like TrackerDelta
	mWedges, mTris map[uint64]int64 // packed class keys: fallback, or unobserved pairs
	fixed          float64          // Σ gap² over classes outside the class table
}

// NewCensusGap builds the gap between current, which must be the census
// of the tracked graph, and target.
func (t *Tracker) NewCensusGap(current, target *Census) *CensusGap {
	g := &CensusGap{t: t, mWedges: make(map[uint64]int64), mTris: make(map[uint64]int64)}
	if t.dense {
		g.wedges = make([]int64, t.npairs*t.nc)
		g.tris = make([]int64, t.npairs*t.nc)
	}
	Join(current.Wedges, target.Wedges, func(k WedgeKey, cur, tgt int64) {
		if v := cur - tgt; !g.addWedge(k, v) {
			g.fixed += float64(v) * float64(v)
		}
	})
	Join(current.Triangles, target.Triangles, func(k TriangleKey, cur, tgt int64) {
		if v := cur - tgt; !g.addTriangle(k, v) {
			g.fixed += float64(v) * float64(v)
		}
	})
	return g
}

// classOf returns the class of degree k, or false if no node has it.
func (t *Tracker) classOf(k int32) (int32, bool) {
	lo, hi := 0, len(t.classDeg)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.classDeg[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo), lo < len(t.classDeg) && t.classDeg[lo] == k
}

// addWedge adds v to wedge class k's gap, in the slot TrackerDelta uses
// for it; false if a degree of k is not in the class table.
func (g *CensusGap) addWedge(k WedgeKey, v int64) bool {
	t := g.t
	lo, ok1 := t.classOf(k.KLo)
	cc, ok2 := t.classOf(k.KCenter)
	hi, ok3 := t.classOf(k.KHi)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	if t.dense {
		if p := t.pid[int(cc)*t.nc+int(lo)]; p >= 0 {
			g.wedges[int(p)*t.nc+int(hi)] += v
			return true
		}
	}
	addCount(g.mWedges, uint64(lo)<<42|uint64(cc)<<21|uint64(hi), v)
	return true
}

// addTriangle is addWedge for triangle classes.
func (g *CensusGap) addTriangle(k TriangleKey, v int64) bool {
	t := g.t
	a, ok1 := t.classOf(k.K1)
	b, ok2 := t.classOf(k.K2)
	c, ok3 := t.classOf(k.K3)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	if t.dense {
		if p := t.pid[int(a)*t.nc+int(b)]; p >= 0 {
			g.tris[int(p)*t.nc+int(c)] += v
			return true
		}
	}
	addCount(g.mTris, uint64(a)<<42|uint64(b)<<21|uint64(c), v)
	return true
}

// Score returns the change in Σ gap² that committing d would make: for
// each class with change δ against gap e, δ·(2e+δ). It changes neither
// g nor the changes d holds.
func (g *CensusGap) Score(d *TrackerDelta) int64 {
	d.compact()
	var s int64
	for j, i := range d.wTouch {
		v := d.wVals[j]
		s += v * (2*g.wedges[i] + v)
	}
	for j, i := range d.tTouch {
		v := d.tVals[j]
		s += v * (2*g.tris[i] + v)
	}
	for key, v := range d.mWedges {
		s += v * (2*g.mWedges[key] + v)
	}
	for key, v := range d.mTris {
		s += v * (2*g.mTris[key] + v)
	}
	return s
}

// Commit folds d's changes into the gap, after the swap d describes was
// applied to the graph (and to the Tracker with ApplySwap).
func (g *CensusGap) Commit(d *TrackerDelta) {
	d.compact()
	for j, i := range d.wTouch {
		g.wedges[i] += d.wVals[j]
	}
	for j, i := range d.tTouch {
		g.tris[i] += d.tVals[j]
	}
	for key, v := range d.mWedges {
		addCount(g.mWedges, key, v)
	}
	for key, v := range d.mTris {
		addCount(g.mTris, key, v)
	}
}

// Sum returns Σ gap² over every class: the paper's D3 between the
// tracked graph and the target.
func (g *CensusGap) Sum() float64 {
	sum := g.fixed
	for _, arr := range [][]int64{g.wedges, g.tris} {
		for _, v := range arr {
			sum += float64(v) * float64(v)
		}
	}
	for _, m := range []map[uint64]int64{g.mWedges, g.mTris} {
		for _, v := range m {
			sum += float64(v) * float64(v)
		}
	}
	return sum
}
