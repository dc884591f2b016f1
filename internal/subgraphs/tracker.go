// Census tracking for the rewiring hot paths: 3K-preserving rewiring,
// 3K targeting, the census-based exploration objectives and the depth-3
// rewiring count. Every move they evaluate is a double-edge swap that
// preserves the joint degree distribution.
//
// A map-keyed delta pays a map-hash on every wedge/triangle class it
// touches and a HasEdge probe per neighbor — per-proposal costs that
// dominate rewiring, where almost every proposal is evaluated and
// rejected. Tracker is the dense engine: degrees are interned into the
// DegreeClasses table once, count changes accumulate in
// degree-class-indexed arrays (degree keys appear only at the Census
// boundary, in Drain), and common-neighbor classification runs
// directly on the CSR's sorted neighbor windows, with O(1) bitset
// probes for nodes above a degree threshold. The CSR working
// representation IS the tracker's sorted adjacency; no second mirror
// copy is maintained.
//
// Because SwapDelta is read-only (edge toggles are virtualized instead of
// applied), many candidate swaps can be evaluated concurrently against one
// Tracker, each into its own TrackerDelta, and a rewiring objective can
// score a move before the move touches the graph. CensusGap holds a
// target census in the same class layout, so scoring a delta against it
// is a walk over the delta's touched slots.
package subgraphs

import (
	"repro/internal/graph"
)

// denseLimit bounds the class-indexed accumulator size (entries per
// shape) and the ordered class-pair lookup table (nc² entries). Dense
// accumulators are sized by *observed* adjacent class pairs — npairs·nc
// entries — so even graphs with hundreds of degree classes stay on the
// dense path; genuinely extreme degree diversity falls back to
// packed-key maps, trading speed for bounded memory. Variable so tests
// can force the fallback path.
var denseLimit = 1 << 20

// Tracker holds the shared, read-only-during-evaluation state for dense
// census deltas over a graph with a fixed joint degree distribution: the
// degree class table, the observed class-pair index, and per-hub
// bitsets. Only swaps that keep the JDD are tracked, so census keys of
// every state use the fixed degrees and every edge keeps a class pair
// that the initial graph already has.
//
// Neighbor reads go straight to the CSR's sorted windows, so the graph
// itself is the mirror. The bitsets are the only derived adjacency
// state: every swap applied to the underlying CSR must be paired with
// the matching ApplySwap call to keep them coherent.
type Tracker struct {
	g        *graph.CSR
	nc       int        // degree class count
	dense    bool       // pair-sized arrays fit denseLimit, else map fallback
	classOf  []int32    // degree -> class, -1 where no node has the degree
	classDeg []int32    // degree class -> degree, ascending
	cls      []int32    // node -> degree class
	pid      []int32    // ordered class pair (a*nc+b) -> dense pair id, -1 unobserved
	pairA    []int32    // pair id -> first class of the ordered pair
	pairB    []int32    // pair id -> second class of the ordered pair
	npairs   int        // ordered observed pair count
	bits     [][]uint64 // per-node bitset for hubs, else nil
}

// NewTracker builds a Tracker over g with the fixed degree sequence deg,
// which must equal g.DegreeSequence().
func NewTracker(g *graph.CSR, deg []int) *Tracker {
	return newTrackerThreshold(g, deg, DefaultBitsetThreshold)
}

// newTrackerThreshold is NewTracker with an explicit bitset degree
// threshold, so tests can put small graphs on the bitset paths.
func newTrackerThreshold(g *graph.CSR, deg []int, threshold int) *Tracker {
	classOf, classDeg, cls := DegreeClasses(deg)
	nc := len(classDeg)
	t := &Tracker{
		g:        g,
		nc:       nc,
		classOf:  classOf,
		classDeg: classDeg,
		cls:      cls,
		bits:     hubBitsets(g, threshold),
	}
	// Index the observed adjacent class pairs, both orders. JDD-preserving
	// swaps keep the set of adjacent class pairs, and a wedge's or a
	// triangle's slot is keyed by one of its edges' pairs, so the dense
	// accumulators need npairs·nc entries instead of nc³.
	if nc*nc <= denseLimit {
		t.pid = make([]int32, nc*nc)
		for i := range t.pid {
			t.pid[i] = -1
		}
		for u := 0; u < g.N(); u++ {
			cu := cls[u]
			for _, v := range g.Neighbors(u) {
				if int(v) < u {
					continue
				}
				cv := cls[v]
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

// slot returns the dense accumulator index of the observed ordered class
// pair (a,b) and the third class c.
func (t *Tracker) slot(a, b, c int32) int32 {
	p := t.pid[int(a)*t.nc+int(b)]
	if p < 0 {
		panic("subgraphs: internal invariant violated: class pair absent from the tracked graph")
	}
	return p*int32(t.nc) + c
}

// adj returns u's sorted neighbor window — the CSR arena itself.
func (t *Tracker) adj(u int) []int32 { return t.g.Neighbors(u) }

// has reports whether edge (a,b) is present — an O(1) bitset probe when
// either endpoint is a hub, a binary search in the shorter sorted window
// otherwise. It mirrors graph.HasEdge exactly as long as every swap
// applied to the graph was also passed to ApplySwap.
func (t *Tracker) has(a, b int) bool {
	if bs := t.bits[b]; bs != nil {
		return bsHas(bs, int32(a))
	}
	if bs := t.bits[a]; bs != nil {
		return bsHas(bs, int32(b))
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

// ApplySwap commits the double-edge swap (u,v),(x,y) → (u,y),(x,v) to
// the bitsets after the caller accepted it (and applied it to the CSR).
func (t *Tracker) ApplySwap(u, v, x, y int) {
	t.toggle(u, v)
	t.toggle(x, y)
	t.toggle(u, y)
	t.toggle(x, v)
}

// toggle flips edge (a,b) in its endpoints' bitsets.
func (t *Tracker) toggle(a, b int) {
	if bs := t.bits[a]; bs != nil {
		bs[uint(b)>>6] ^= 1 << (uint(b) & 63)
	}
	if bs := t.bits[b]; bs != nil {
		bs[uint(a)>>6] ^= 1 << (uint(a) & 63)
	}
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
	// compacts the lists so duplicates cannot double-count.
	wedges, tris   []int64
	wTouch, tTouch []int32
	// wVals/tVals hold the slot values parallel to wTouch/tTouch once
	// compact has deduplicated the touched lists.
	wVals, tVals []int64
	// Fallback when !t.dense: packed class keys, as packKey builds them.
	mWedges, mTris map[uint64]int64
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
	for _, i := range d.wTouch {
		d.wedges[i] = 0
	}
	for _, i := range d.tTouch {
		d.tris[i] = 0
	}
	d.wTouch = d.wTouch[:0]
	d.tTouch = d.tTouch[:0]
	clear(d.mWedges)
	clear(d.mTris)
}

// IsZero reports whether every accumulated count change is zero — i.e.
// whether the evaluated swap preserves the 3K-distribution.
func (d *TrackerDelta) IsZero() bool {
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
	}
	for key, v := range d.mWedges {
		ws = append(ws, WedgeCount{d.t.packedWedge(key), v})
	}
	ts := make([]TriangleCount, 0, len(d.tTouch)+len(d.mTris))
	for j, i := range d.tTouch {
		ts = append(ts, TriangleCount{d.t.triangleAt(i), d.tVals[j]})
	}
	for key, v := range d.mTris {
		ts = append(ts, TriangleCount{d.t.packedTriangle(key), v})
	}
	d.Reset()
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

// packKey packs the classes of a slot — the ordered pair (a,b) and the
// third class c, laid out as on the dense path — into a map key.
func packKey(a, b, c int32) uint64 {
	return uint64(a)<<42 | uint64(b)<<21 | uint64(c)
}

const packMask = 1<<21 - 1

// packedWedge decodes a packed (center, low end, high end) class key.
func (t *Tracker) packedWedge(key uint64) WedgeKey {
	return WedgeKey{t.classDeg[key>>21&packMask], t.classDeg[key>>42], t.classDeg[key&packMask]}
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

// addWedge accumulates a wedge class change: ends e1, e2 (canonicalized;
// classDeg is ascending so class order is degree order), center cc. The
// slot is keyed by the ordered pair (center, low end), which is the class
// pair of one of the wedge's edges.
func (d *TrackerDelta) addWedge(e1, cc, e2 int32, sign int64) {
	lo, hi := min(e1, e2), max(e1, e2)
	if !d.t.dense {
		addCount(d.mWedges, packKey(cc, lo, hi), sign)
		return
	}
	i := d.t.slot(cc, lo, hi)
	if d.wedges[i] == 0 {
		d.wTouch = append(d.wTouch, i)
	}
	d.wedges[i] += sign
}

// addTriangle accumulates a triangle class change for corners a, b, c.
// The slot is keyed by the ordered pair (a,b) of the sorted corner
// classes; a triangle's corners are pairwise adjacent.
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
	if !d.t.dense {
		addCount(d.mTris, packKey(a, b, c), sign)
		return
	}
	i := d.t.slot(a, b, c)
	if d.tris[i] == 0 {
		d.tTouch = append(d.tTouch, i)
	}
	d.tris[i] += sign
}

// SwapDelta resets d and accumulates the exact census change of the
// double-edge swap (u,v),(x,y) → (u,y),(x,v), read-only: the four edge
// toggles are virtualized against the graph instead of applied, so
// concurrent SwapDelta calls on one Tracker are safe (one TrackerDelta
// per goroutine). Preconditions (the structural validity the rewiring
// proposal already checks): u,v,x,y distinct, (u,v) and (x,y) present,
// (u,y) and (x,v) absent, and the swap keeps the joint degree
// distribution — deg v == deg y or deg u == deg x. A swap that changes
// it panics.
//
// With deg v == deg y (the other orientation is the same swap read as
// (v,u),(y,x) → (v,x),(y,u)), the four toggles cancel class-wise
// everywhere except on the symmetric difference of N(v) and N(y): a
// common neighbor w sees edge w–v's and w–y's contexts trade places at
// identical class keys, so the neighborhoods of u and x — the expensive
// side when u or x is a hub — are never walked. What remains is one
// merged walk over adj(v) and adj(y) with membership probes only on the
// symmetric difference.
func (t *Tracker) SwapDelta(d *TrackerDelta, u, v, x, y int) {
	if t.cls[v] != t.cls[y] {
		if t.cls[u] != t.cls[x] {
			panic("subgraphs: internal invariant violated: SwapDelta on a swap that changes the joint degree distribution")
		}
		u, v, x, y = v, u, y, x
	}
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
			// u appears only on the V side (edge u–v goes, u–y is absent)
			// and x only on the Y side: they are endpoints of the toggled
			// edges, not neighbors whose context changes.
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

// SwapTriangles reports, read-only, every triangle the double-edge swap
// (u,v),(x,y) → (u,y),(x,v) destroys or creates: f(a, b, w, sign) with
// (a,b) the toggled edge, w the common neighbor closing the triangle and
// sign −1 for a lost triangle, +1 for a gained one. The four edge
// toggles are virtualized as in SwapDelta, so summing the calls per node
// gives each node's exact triangle change. Same structural preconditions
// as SwapDelta, but any degree-preserving swap is allowed.
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
// walks only the delta's touched slots. Classes no tracked swap can
// reach — some degree is not in the class table, or on the dense path a
// class pair the graph does not have — keep a constant gap, folded into
// fixed. With the Tracker's fixed joint degree distribution the gap is
// exact under any committed sequence of swaps.
type CensusGap struct {
	t              *Tracker
	wedges, tris   []int64          // dense path, indexed like TrackerDelta
	mWedges, mTris map[uint64]int64 // fallback when !t.dense, keyed like TrackerDelta
	fixed          float64          // Σ gap² over classes no swap reaches
}

// NewCensusGap builds the gap between current, which must be the census
// of the tracked graph, and target.
func (t *Tracker) NewCensusGap(current, target *Census) *CensusGap {
	g := &CensusGap{t: t}
	if t.dense {
		g.wedges = make([]int64, t.npairs*t.nc)
		g.tris = make([]int64, t.npairs*t.nc)
	} else {
		g.mWedges = make(map[uint64]int64)
		g.mTris = make(map[uint64]int64)
	}
	Join(current.Wedges, target.Wedges, func(k WedgeKey, cur, tgt int64) {
		g.add(g.wedges, g.mWedges, k.KCenter, k.KLo, k.KHi, cur-tgt)
	})
	Join(current.Triangles, target.Triangles, func(k TriangleKey, cur, tgt int64) {
		g.add(g.tris, g.mTris, k.K1, k.K2, k.K3, cur-tgt)
	})
	return g
}

// add adds v to the gap of the class whose slot is keyed by the degree
// pair (ka,kb) and the third degree kc, or to fixed if no swap reaches
// that class.
func (g *CensusGap) add(arr []int64, m map[uint64]int64, ka, kb, kc int32, v int64) {
	t := g.t
	a, ok1 := t.class(ka)
	b, ok2 := t.class(kb)
	c, ok3 := t.class(kc)
	if ok1 && ok2 && ok3 {
		if !t.dense {
			addCount(m, packKey(a, b, c), v)
			return
		}
		if t.pid[int(a)*t.nc+int(b)] >= 0 {
			arr[t.slot(a, b, c)] += v
			return
		}
	}
	g.fixed += float64(v) * float64(v)
}

// class returns the class of degree k, or false if no node has it.
func (t *Tracker) class(k int32) (int32, bool) {
	if k < 0 || int(k) >= len(t.classOf) || t.classOf[k] < 0 {
		return 0, false
	}
	return t.classOf[k], true
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
