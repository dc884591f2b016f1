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
	"repro/internal/parallel"
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

// parallelPairs is the neighbor-pair count Σ k(k−1)/2 at and above which
// Count spreads its center classes over the worker pool; below it one
// worker counts every class. With the cutoff at zero, one Count at two
// workers against one, best of three on a 2-vCPU VM: Skitter N=1000
// (77 k pairs) 0.40 → 0.33 ms, N=2000 (322 k) 1.30 → 0.95 ms, N=4000
// (1.07 M) 2.70 → 1.81 ms; γ=2 power law n=10 k (887 k) 8.5 → 5.5 ms,
// n=45 k (8.3 M) 56 → 31 ms. Two workers win at every size, but below
// half a million pairs they save a few tenths of a millisecond, while
// with the cutoff at zero dkperf's skitter_d3 (inputs of about 70 k
// pairs) read a peak RSS 0.25–0.64 MB above the serial census in 4 of 4
// pairs.
const parallelPairs = 500_000

// minParallelPairs is parallelPairs; tests lower it so that small
// graphs take the class-parallel path.
var minParallelPairs int64 = parallelPairs

// Count computes the exact wedge/triangle census of s, emitting both
// arrays directly in canonical order with no hashing and no sort.
//
// Node degrees are interned by DegreeClasses, ascending in degree, so
// class order is key order. Each center class cc accumulates into two
// planes over the end-class pairs (a, b), a <= b (packed, see rowBase):
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
// longer window, u's window beyond v against v's bitset — so no edge
// costs more than its shorter endpoint window. When a class is done its
// planes' nonzero slots are read out in index order, which is
// (KCenter, KLo, KHi) order for wedges and (K1, K2, K3) order for
// triangles.
//
// The wedge array, most of the census, is allocated once at the total
// of the per-class bounds wedgeClassBound gives, so it never grows. A
// class's planes depend on that class alone, so above parallelPairs
// neighbor pairs the classes are counted on the internal/parallel pool,
// highest degree first so that the hub classes do not form the tail,
// each worker with its own planes and stamp. Each class writes its
// wedge entries at the sum of the bounds below it, and one serial pass
// moves them down over the slack and concatenates the classes'
// triangles in class order; inside a loop that has already spent the
// pool's helpers, this runs inline. Below the cutoff, or with one
// worker, the classes are counted in ascending order, each written
// right after the one before, and nothing moves. The census is
// byte-identical either way, at any worker count. The planes take
// O(nc²) = O(m) memory per worker.
func Count(s *graph.CSR) *Census {
	deg := s.DegreeSequence()
	_, classDeg, cls := DegreeClasses(deg)
	nc := len(classDeg)
	l := &countLayout{s: s, cls: cls, classDeg: classDeg, start: make([]int, nc+1), order: make([]int32, len(deg))}
	// Counting sort of the nodes by class: class c's centers are
	// order[start[c]:start[c+1]], with start[nc] = n.
	for _, c := range cls {
		l.start[c+1]++
	}
	for c := 1; c <= nc; c++ {
		l.start[c] += l.start[c-1]
	}
	next := slices.Clone(l.start)
	for u, c := range cls {
		l.order[next[c]] = int32(u)
		next[c]++
	}
	l.bits = hubBitsets(s, DefaultBitsetThreshold)
	var pairs int64
	for _, k := range deg {
		pairs += int64(k) * int64(k-1) / 2
	}
	workers := 1
	if pairs >= minParallelPairs {
		workers = parallel.Workers()
	}

	// off[cc] is class cc's offset into the wedge array: the bounds of
	// the classes below it, summed.
	off := make([]int, nc+1)
	bounders := make([]*classBounder, workers)
	parallel.ForWorkers(workers, nc, func(worker, i int) {
		if bounders[worker] == nil {
			bounders[worker] = newClassBounder(nc)
		}
		cc := nc - 1 - i
		off[cc+1] = bounders[worker].wedgeClassBound(l, cc)
	})
	for cc := range nc {
		off[cc+1] += off[cc]
	}
	wedges := make([]WedgeCount, off[nc])
	if workers == 1 {
		// One worker counts the classes in ascending order, each right
		// after the one before, so nothing moves and the bounds' slack
		// is never written.
		c := &Census{Wedges: wedges[:0], Triangles: []TriangleCount{}}
		sc := newClassCounter(len(deg), nc)
		for cc := range nc {
			k, tris := sc.count(l, cc, wedges[len(c.Wedges):off[cc+1]])
			c.Wedges = c.Wedges[:len(c.Wedges)+k]
			if len(c.Triangles)+len(tris) > cap(c.Triangles) {
				// Double: append's 1.25× steps for large slices would
				// allocate about 5× the final array.
				c.Triangles = slices.Grow(c.Triangles, max(len(tris), cap(c.Triangles)))
			}
			c.Triangles = append(c.Triangles, tris...)
		}
		return c
	}
	nw := make([]int, nc)
	tris := make([][]TriangleCount, nc)
	counters := make([]*classCounter, workers)
	parallel.ForWorkers(workers, nc, func(worker, i int) {
		if counters[worker] == nil {
			counters[worker] = newClassCounter(len(deg), nc)
		}
		cc := nc - 1 - i
		k, t := counters[worker].count(l, cc, wedges[off[cc]:off[cc+1]])
		nw[cc], tris[cc] = k, slices.Clone(t)
	})
	nt := 0
	for _, t := range tris {
		nt += len(t)
	}
	c := &Census{Wedges: wedges[:0], Triangles: make([]TriangleCount, 0, nt)}
	for cc := range nc {
		c.Wedges = append(c.Wedges, wedges[off[cc]:off[cc]+nw[cc]]...) // moves down, in place
		c.Triangles = append(c.Triangles, tris[cc]...)
	}
	return c
}

// countLayout is what Count's workers share, read-only: the graph, its
// degree classes (cls per node, classDeg per class), the centers of
// class c in order[start[c]:start[c+1]], and the hub bitsets.
type countLayout struct {
	s        *graph.CSR
	cls      []int32
	classDeg []int32
	order    []int32
	start    []int
	bits     [][]uint64
}

// classCounter is one Count worker's scratch: the two packed planes of
// the class it is counting, the neighbor-class histogram cnt with its
// touched classes, the center stamp and the class's triangles.
type classCounter struct {
	wPlane, tPlane []int64
	cnt            []int64
	touched        []int32
	stamp          []int32 // stamp[w] == u+1: w is a neighbor of center u
	tris           []TriangleCount
}

func newClassCounter(n, nc int) *classCounter {
	return &classCounter{
		wPlane:  make([]int64, nc*(nc+1)/2),
		tPlane:  make([]int64, nc*(nc+1)/2),
		cnt:     make([]int64, nc),
		touched: make([]int32, 0, 64),
		stamp:   make([]int32, n),
	}
}

// count counts the centers of class cc, writes the class's wedge
// entries to dst in key order and returns how many it wrote, with the
// class's triangle entries in key order, which the next count
// overwrites. It leaves the planes zero.
func (sc *classCounter) count(l *countLayout, cc int, dst []WedgeCount) (int, []TriangleCount) {
	s, cls, nc := l.s, l.cls, len(l.classDeg)
	wPlane, tPlane, cnt, stamp := sc.wPlane, sc.tPlane, sc.cnt, sc.stamp
	for _, u32 := range l.order[l.start[cc]:l.start[cc+1]] {
		u := int(u32)
		nbrs := s.Neighbors(u)
		if len(nbrs) < 2 {
			continue
		}
		mark := u32 + 1
		for _, v := range nbrs {
			c := cls[v]
			if cnt[c] == 0 {
				sc.touched = append(sc.touched, c)
			}
			cnt[c]++
			stamp[v] = mark
		}
		slices.Sort(sc.touched)
		for i, a := range sc.touched {
			ha, row := cnt[a], planeRow(wPlane, int(a), nc)
			row[a] += ha * (ha - 1) / 2
			for _, b := range sc.touched[i+1:] {
				row[b] += ha * cnt[b]
			}
		}
		for _, a := range sc.touched {
			cnt[a] = 0
		}
		sc.touched = sc.touched[:0]

		// Closed pairs {v, w}, v < w, around u: each is a wedge
		// the histogram counted but the induced convention does not,
		// and a triangle, kept only at its smallest corner.
		for i, v32 := range nbrs[:len(nbrs)-1] {
			v, cv := int(v32), cls[v32]
			vBeforeU := cv < int32(cc) || cv == int32(cc) && v < u
			closed := func(w int32) {
				cw := cls[w]
				lo, hi := min(cv, cw), max(cv, cw)
				slot := rowBase(int(lo), nc) + int(hi)
				wPlane[slot]--
				if !vBeforeU && (cw > int32(cc) || cw == int32(cc) && int(w) > u) {
					tPlane[slot]++
				}
			}
			wu := nbrs[i+1:]
			adjV := s.Neighbors(v)
			wv := adjV[searchPast(adjV, v32):]
			if bv := l.bits[v]; bv != nil && len(wu) < len(wv) {
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
	// Read out and zero the nonzero slots (a, b), a <= b, in index
	// order: wedge ends from class 0, triangle corners from cc.
	kc, classDeg := l.classDeg[cc], l.classDeg
	k := 0
	for a := 0; a < nc; a++ {
		row := planeRow(wPlane, a, nc)
		for b := a; b < nc; b++ {
			if v := row[b]; v != 0 {
				dst[k] = WedgeCount{WedgeKey{classDeg[a], kc, classDeg[b]}, v}
				k++
				row[b] = 0
			}
		}
	}
	sc.tris = sc.tris[:0]
	for a := cc; a < nc; a++ {
		row := planeRow(tPlane, a, nc)
		for b := a; b < nc; b++ {
			if v := row[b]; v != 0 {
				sc.tris = append(sc.tris, TriangleCount{TriangleKey{kc, classDeg[a], classDeg[b]}, v})
				row[b] = 0
			}
		}
	}
	return k, sc.tris
}

// rowBase places the slots (a, b), a <= b, of a packed nc-class plane,
// row after row: slot (a, b) is at rowBase(a, nc) + b.
func rowBase(a, nc int) int { return int(uint(a) * uint(2*nc-a-1) >> 1) }

// planeRow returns row a of a packed nc-class plane, indexed by b; only
// its slots b >= a belong to row a.
func planeRow(plane []int64, a, nc int) []int64 {
	i := rowBase(a, nc)
	return plane[i : i+nc]
}

// classBounder is one Count worker's scratch for wedgeClassBound.
type classBounder struct {
	seen    []uint64 // row lo: the hi classes marked
	nbr     []uint64 // classes with a neighbor of the center
	twice   []uint64 // classes with two or more
	touched []int32
}

func newClassBounder(nc int) *classBounder {
	words := (nc + 63) / 64
	return &classBounder{
		seen:    make([]uint64, nc*words),
		nbr:     make([]uint64, words),
		twice:   make([]uint64, words),
		touched: make([]int32, 0, 64),
	}
}

// wedgeClassBound returns an upper bound on the number of wedge classes
// Count emits for center class cc. It marks, in an nc²-bit set, every
// end-class slot (lo, hi) that a center's neighbor-class histogram
// fills, and counts the marks. Closed pairs only subtract from slots
// the histogram filled, so no other slot can end nonzero. A center ORs
// the bitset of its neighbors' classes into the row of each such class,
// so a hub with T neighbor classes costs T·nc/64 word operations, not
// T²/2 slot updates.
func (cb *classBounder) wedgeClassBound(l *countLayout, cc int) int {
	seen, nbr, twice := cb.seen, cb.nbr, cb.twice
	words := len(nbr)
	for _, u := range l.order[l.start[cc]:l.start[cc+1]] {
		nbrs := l.s.Neighbors(int(u))
		if len(nbrs) < 2 {
			continue
		}
		for _, v := range nbrs {
			c := l.cls[v]
			if w, bit := c>>6, uint64(1)<<(c&63); nbr[w]&bit == 0 {
				nbr[w] |= bit
				cb.touched = append(cb.touched, c)
			} else {
				twice[w] |= bit
			}
		}
		for _, a := range cb.touched {
			row, w, bit := seen[int(a)*words:int(a+1)*words], a>>6, uint64(1)<<(a&63)
			row[w] |= nbr[w]&^(bit<<1-1) | twice[w]&bit // hi > a, or hi == a twice
			for x := w + 1; x < int32(words); x++ {
				row[x] |= nbr[x]
			}
		}
		for _, a := range cb.touched {
			nbr[a>>6], twice[a>>6] = 0, 0
		}
		cb.touched = cb.touched[:0]
	}
	bound := 0
	for _, x := range seen {
		bound += bits.OnesCount64(x)
	}
	clear(seen)
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
