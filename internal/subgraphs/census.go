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
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// WedgeKey identifies a wedge class by node degrees: a path end–center–end
// with end degrees KLo <= KHi (swapping the two ends is an isomorphism, so
// the key is canonical). Degrees are int32, as the CSR caps nodes at
// math.MaxInt32, which with the int64 count makes a 24-byte census entry.
type WedgeKey struct {
	KLo, KCenter, KHi int32
}

// NewWedgeKey canonicalizes (end1, center, end2) degree arguments, each
// of which must lie in [0, math.MaxInt32].
func NewWedgeKey(kEnd1, kCenter, kEnd2 int) WedgeKey {
	if kEnd1 > kEnd2 {
		kEnd1, kEnd2 = kEnd2, kEnd1
	}
	return WedgeKey{int32(kEnd1), int32(kCenter), int32(kEnd2)}
}

// TriangleKey identifies a triangle class by sorted node degrees
// K1 <= K2 <= K3.
type TriangleKey struct {
	K1, K2, K3 int32
}

// NewTriangleKey canonicalizes three degree arguments, each of which
// must lie in [0, math.MaxInt32].
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
	return TriangleKey{int32(a), int32(b), int32(c)}
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

// errDegreeRange is the decoders' error for a class degree that does not
// fit the int32 key fields.
var errDegreeRange = fmt.Errorf("degree outside [0, %d]", math.MaxInt32)

// degreesFit reports whether every degree lies in [0, math.MaxInt32].
func degreesFit[T int | uint64](ks ...T) bool {
	for _, k := range ks {
		if k < 0 || uint64(k) > math.MaxInt32 {
			return false
		}
	}
	return true
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
// Node degrees are interned by DegreeClasses, ascending in degree, so
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
// (degree >= DefaultBitsetThreshold, with a hubBitsets bitset) with the
// longer window, u's window beyond v against v's bitset — so no edge costs more than its shorter
// endpoint window. When a class is done its planes' nonzero slots are
// appended in index order, which is (KCenter, KLo, KHi) order for wedges
// and (K1, K2, K3) order for triangles. The planes take O(nc²) = O(m)
// memory. The wedge array, most of the census, is allocated once at the
// capacity wedgeClassBound gives, so it never grows and is never copied;
// triangles go to a growing slice.
func Count(s *graph.CSR) *Census {
	n := s.N()
	_, classDeg, cls := DegreeClasses(s.DegreeSequence())
	nc := len(classDeg)
	// Counting sort of the nodes by class: class c's centers are
	// order[start[c]:start[c+1]], with start[nc] = n.
	start := make([]int, nc+1)
	for _, c := range cls {
		start[c+1]++
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
	bits := hubBitsets(s, DefaultBitsetThreshold)

	c := &Census{
		Wedges:    make([]WedgeCount, 0, wedgeClassBound(s, cls, order, start)),
		Triangles: []TriangleCount{},
	}
	wPlane := make([]int64, nc*nc)
	tPlane := make([]int64, nc*nc)
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
		// Append and zero the nonzero slots (a, b), a <= b, in index
		// order: wedge ends from class 0, triangle corners from cc.
		kc := classDeg[cc]
		for a := 0; a < nc; a++ {
			row := wPlane[a*nc : (a+1)*nc]
			for b := a; b < nc; b++ {
				if v := row[b]; v != 0 {
					c.Wedges = append(c.Wedges, WedgeCount{WedgeKey{classDeg[a], kc, classDeg[b]}, v})
					row[b] = 0
				}
			}
		}
		for a := cc; a < nc; a++ {
			row := tPlane[a*nc : (a+1)*nc]
			for b := a; b < nc; b++ {
				if v := row[b]; v != 0 {
					if len(c.Triangles) == cap(c.Triangles) {
						// Double: append's 1.25× steps for large slices
						// would allocate about 5× the final array.
						c.Triangles = slices.Grow(c.Triangles, len(c.Triangles)+1)
					}
					c.Triangles = append(c.Triangles, TriangleCount{TriangleKey{kc, classDeg[a], classDeg[b]}, v})
					row[b] = 0
				}
			}
		}
	}
	return c
}

// wedgeClassBound returns an upper bound on the number of wedge classes
// Count emits for the class layout cls, order and start. For each center
// class it marks, in an nc²-bit set, every end-class slot (lo, hi) that
// a center's neighbor-class histogram fills, and counts the marks. Closed
// pairs only subtract from slots the histogram filled, so no other slot
// can end nonzero. A center ORs the bitset of its neighbors' classes into
// the row of each such class, so a hub with T neighbor classes costs
// T·nc/64 word operations, not T²/2 slot updates.
func wedgeClassBound(s *graph.CSR, cls, order []int32, start []int) int {
	nc := len(start) - 1
	words := (nc + 63) / 64
	seen := make([]uint64, nc*words) // row lo: the hi classes marked
	nbr := make([]uint64, words)     // classes with a neighbor of the center
	twice := make([]uint64, words)   // classes with two or more
	touched := make([]int32, 0, 64)
	bound := 0
	for cc := 0; cc < nc; cc++ {
		for _, u := range order[start[cc]:start[cc+1]] {
			nbrs := s.Neighbors(int(u))
			if len(nbrs) < 2 {
				continue
			}
			for _, v := range nbrs {
				c := cls[v]
				if w, bit := c>>6, uint64(1)<<(c&63); nbr[w]&bit == 0 {
					nbr[w] |= bit
					touched = append(touched, c)
				} else {
					twice[w] |= bit
				}
			}
			for _, a := range touched {
				row, w, bit := seen[int(a)*words:int(a+1)*words], a>>6, uint64(1)<<(a&63)
				row[w] |= nbr[w]&^(bit<<1-1) | twice[w]&bit // hi > a, or hi == a twice
				for x := w + 1; x < int32(words); x++ {
					row[x] |= nbr[x]
				}
			}
			for _, a := range touched {
				nbr[a>>6], twice[a>>6] = 0, 0
			}
			touched = touched[:0]
		}
		for _, x := range seen {
			bound += bits.OnesCount64(x)
		}
		clear(seen)
	}
	return bound
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
