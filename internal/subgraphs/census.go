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
	"cmp"
	"fmt"
	"slices"

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

// Compare orders wedge keys by (KCenter, KLo, KHi), the census's
// canonical wedge order.
func (k WedgeKey) Compare(o WedgeKey) int {
	if c := cmp.Compare(k.KCenter, o.KCenter); c != 0 {
		return c
	}
	if c := cmp.Compare(k.KLo, o.KLo); c != 0 {
		return c
	}
	return cmp.Compare(k.KHi, o.KHi)
}

// Compare orders triangle keys by (K1, K2, K3), the census's canonical
// triangle order.
func (k TriangleKey) Compare(o TriangleKey) int {
	if c := cmp.Compare(k.K1, o.K1); c != 0 {
		return c
	}
	if c := cmp.Compare(k.K2, o.K2); c != 0 {
		return c
	}
	return cmp.Compare(k.K3, o.K3)
}

// ClassKey is a census class key: a WedgeKey or a TriangleKey.
type ClassKey[K any] interface {
	WedgeKey | TriangleKey
	Compare(K) int
}

// ClassCount is one census class and its count.
type ClassCount[K ClassKey[K]] struct {
	Key   K
	Count int64
}

// WedgeCount and TriangleCount are the entries of a Census.
type (
	WedgeCount    = ClassCount[WedgeKey]
	TriangleCount = ClassCount[TriangleKey]
)

// Census holds degree-keyed counts of wedges and triangles — the paper's
// 3K-distribution in count form. Both arrays are in canonical key order
// (wedges by (KCenter, KLo, KHi), triangles by (K1, K2, K3)), with unique
// keys and nonzero counts; every constructor and decoder keeps that
// invariant, and code that builds a Census by hand must too.
type Census struct {
	Wedges    []WedgeCount
	Triangles []TriangleCount
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{}
}

// Wedge returns the count of wedge class k (zero if absent).
func (c *Census) Wedge(k WedgeKey) int64 { return lookup(c.Wedges, k) }

// Triangle returns the count of triangle class k (zero if absent).
func (c *Census) Triangle(k TriangleKey) int64 { return lookup(c.Triangles, k) }

// lookup binary-searches a canonical class array.
func lookup[K ClassKey[K]](s []ClassCount[K], k K) int64 {
	i, ok := slices.BinarySearchFunc(s, k, func(e ClassCount[K], k K) int { return e.Key.Compare(k) })
	if !ok {
		return 0
	}
	return s[i].Count
}

// TotalWedges returns the total number of wedges across all classes.
func (c *Census) TotalWedges() int64 { return total(c.Wedges) }

// TotalTriangles returns the total number of triangles across all classes.
func (c *Census) TotalTriangles() int64 { return total(c.Triangles) }

func total[K ClassKey[K]](s []ClassCount[K]) int64 {
	var t int64
	for _, e := range s {
		t += e.Count
	}
	return t
}

// Clone returns a deep copy.
func (c *Census) Clone() *Census {
	return &Census{Wedges: slices.Clone(c.Wedges), Triangles: slices.Clone(c.Triangles)}
}

// Equal reports whether two censuses have identical counts.
func (c *Census) Equal(o *Census) bool {
	return slices.Equal(c.Wedges, o.Wedges) && slices.Equal(c.Triangles, o.Triangles)
}

// Join walks the union of two canonical class arrays in key order,
// calling f with each key and its counts in a and in b (zero where
// absent).
func Join[K ClassKey[K]](a, b []ClassCount[K], f func(k K, x, y int64)) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var c int
		switch {
		case i == len(a):
			c = 1
		case j == len(b):
			c = -1
		default:
			c = a[i].Key.Compare(b[j].Key)
		}
		switch {
		case c < 0:
			f(a[i].Key, a[i].Count, 0)
			i++
		case c > 0:
			f(b[j].Key, 0, b[j].Count)
			j++
		default:
			f(a[i].Key, a[i].Count, b[j].Count)
			i++
			j++
		}
	}
}

// setCanonical sets c to the decoded wire records wedges and tris:
// sorted into key order, duplicate keys rejected, zero counts dropped.
func (c *Census) setCanonical(wedges []WedgeCount, tris []TriangleCount) error {
	wedges, err := canonicalize(wedges, "wedge")
	if err != nil {
		return err
	}
	tris, err = canonicalize(tris, "triangle")
	if err != nil {
		return err
	}
	c.Wedges, c.Triangles = wedges, tris
	return nil
}

// canonicalize sorts s, rejects duplicate keys and drops zero counts.
func canonicalize[K ClassKey[K]](s []ClassCount[K], what string) ([]ClassCount[K], error) {
	sortClasses(s)
	for i := 1; i < len(s); i++ {
		if s[i].Key == s[i-1].Key {
			return nil, fmt.Errorf("subgraphs: duplicate %s class %+v", what, s[i].Key)
		}
	}
	return slices.DeleteFunc(s, func(e ClassCount[K]) bool { return e.Count == 0 }), nil
}

// sortClasses sorts s into canonical key order.
func sortClasses[K ClassKey[K]](s []ClassCount[K]) {
	slices.SortFunc(s, func(a, b ClassCount[K]) int { return a.Key.Compare(b.Key) })
}

// Count computes the exact wedge/triangle census of s, emitting both
// arrays directly in canonical order with no hashing and no sort.
//
// Node degrees are interned into a class table ascending in degree, so
// class order is key order. Centers are visited class by class, in
// ascending order, and each class cc accumulates into two nc² planes:
//   - wedges (lo, hi) around centers of class cc, from each center's
//     neighbor-class histogram — cross classes multiply, same classes
//     choose 2 — minus the closed neighbor pairs, which keeps the
//     induced (open two-path) convention;
//   - triangles (K2, K3) whose smallest (class, id) corner has class cc.
//
// Closed pairs around a center u come from its edges: for each neighbor
// v, the common neighbors w > v are found by walking the shorter side —
// v's window beyond v against a stamp of N(u), or, when v is a hub
// (degree >= DefaultBitsetThreshold) with the longer window, u's window
// beyond v against v's bitset — so no edge costs more than its shorter
// endpoint window. When a class is done its planes' nonzero slots are
// flushed in index order, which is (KCenter, KLo, KHi) order for wedges
// and (K1, K2, K3) order for triangles. The planes take O(nc²) = O(m)
// memory; the flushed slots are logged in fixed-size chunks so the
// output arrays are allocated at their exact length.
func Count(s *graph.CSR) *Census {
	n := s.N()
	deg := make([]int, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = s.Degree(u)
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
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
	// Counting sort of the nodes by class: class c's centers are
	// order[start[c]:start[c+1]], with start[nc] = n.
	start := make([]int, nc+1)
	for u := 0; u < n; u++ {
		cls[u] = classOf[deg[u]]
		start[cls[u]+1]++
	}
	for c := 1; c <= nc; c++ {
		start[c] += start[c-1]
	}
	order := make([]int32, n)
	next := slices.Clone(start)
	for u := 0; u < n; u++ {
		order[next[cls[u]]] = int32(u)
		next[cls[u]]++
	}
	// Bitsets for hub membership probes, as in the Tracker.
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

	wPlane := make([]int64, nc*nc)
	tPlane := make([]int64, nc*nc)
	var wLog, tLog slotLog
	cnt := make([]int64, nc)
	touched := make([]int32, 0, 64)
	stamp := make([]int32, n) // stamp[w] == u+1: w is a neighbor of center u
	for cc := 0; cc < nc; cc++ {
		for _, u32 := range order[start[cc]:start[cc+1]] {
			u := int(u32)
			nbrs := s.Neighbors(u)
			if len(nbrs) < 2 {
				continue
			}
			mark := u32 + 1
			for _, v := range nbrs {
				c := cls[v]
				if cnt[c] == 0 {
					touched = append(touched, c)
				}
				cnt[c]++
				stamp[v] = mark
			}
			slices.Sort(touched)
			for i, a := range touched {
				ha, row := cnt[a], wPlane[int(a)*nc:int(a+1)*nc]
				row[a] += ha * (ha - 1) / 2
				for _, b := range touched[i+1:] {
					row[b] += ha * cnt[b]
				}
			}
			for _, a := range touched {
				cnt[a] = 0
			}
			touched = touched[:0]

			// Closed pairs {v, w}, v < w, around u: each is a wedge
			// the histogram counted but the induced convention does not,
			// and a triangle, kept only at its smallest corner.
			for i, v32 := range nbrs[:len(nbrs)-1] {
				v, cv := int(v32), cls[v32]
				vBeforeU := cv < int32(cc) || cv == int32(cc) && v < u
				closed := func(w int32) {
					cw := cls[w]
					lo, hi := min(cv, cw), max(cv, cw)
					wPlane[int(lo)*nc+int(hi)]--
					if !vBeforeU && (cw > int32(cc) || cw == int32(cc) && int(w) > u) {
						tPlane[int(lo)*nc+int(hi)]++
					}
				}
				wu := nbrs[i+1:]
				adjV := s.Neighbors(v)
				wv := adjV[searchPast(adjV, v32):]
				if bv := bits[v]; bv != nil && len(wu) < len(wv) {
					for _, w := range wu {
						if bsHas(bv, w) {
							closed(w)
						}
					}
				} else {
					for _, w := range wv {
						if stamp[w] == mark {
							closed(w)
						}
					}
				}
			}
		}
		wLog.flush(wPlane, nc, 0)
		tLog.flush(tPlane, nc, cc)
	}

	c := &Census{
		Wedges:    make([]WedgeCount, wLog.n),
		Triangles: make([]TriangleCount, tLog.n),
	}
	for cc, i := 0, 0; cc < nc; cc++ {
		for ; i < wLog.ends[cc]; i++ {
			e := wLog.at(i)
			c.Wedges[i] = WedgeCount{WedgeKey{classDeg[e.a], classDeg[cc], classDeg[e.b]}, e.n}
		}
	}
	for cc, i := 0, 0; cc < nc; cc++ {
		for ; i < tLog.ends[cc]; i++ {
			e := tLog.at(i)
			c.Triangles[i] = TriangleCount{TriangleKey{classDeg[cc], classDeg[e.a], classDeg[e.b]}, e.n}
		}
	}
	return c
}

// slot is one nonzero plane entry: classes a <= b and the count.
type slot struct {
	a, b int32
	n    int64
}

// logChunk is the slotLog chunk length.
const logChunk = 1 << 14

// slotLog collects the nonzero plane slots flushed per center class in
// fixed-size chunks, so Count can size its output exactly once counting
// ends, without reallocating a growing buffer.
type slotLog struct {
	chunks [][]slot
	n      int
	ends   []int // ends[cc]: slots logged through center class cc
}

// flush logs and zeroes the nonzero slots (a, b), from <= a <= b, of
// the nc×nc plane in index order, and closes the current center class.
func (l *slotLog) flush(plane []int64, nc, from int) {
	for a := from; a < nc; a++ {
		row := plane[a*nc : (a+1)*nc]
		for b := a; b < nc; b++ {
			if v := row[b]; v != 0 {
				if l.n%logChunk == 0 {
					l.chunks = append(l.chunks, make([]slot, logChunk))
				}
				l.chunks[l.n/logChunk][l.n%logChunk] = slot{int32(a), int32(b), v}
				l.n++
				row[b] = 0
			}
		}
	}
	l.ends = append(l.ends, l.n)
}

// at returns the i-th logged slot.
func (l *slotLog) at(i int) slot { return l.chunks[i/logChunk][i%logChunk] }

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
