package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// CSR is the undirected simple graph every package works on:
// compressed-sparse-row adjacency with int32 node ids, sorted neighbor
// windows, and an edge-index overlay that makes edge removal O(deg)
// instead of O(m). It spends 8 bytes per directed adjacency entry
// (neighbor id + edge index) plus amortized slack.
//
// Layout: node u's live neighbor window is
// neigh[start[u] : start[u]+deg[u]], sorted ascending, with capacity
// wcap[u]. epos runs parallel to neigh: epos[i] is the index in edges
// of the edge between the window's owner and neigh[i]. edges is the
// flat edge list in canonical orientation (U < V): AddEdge appends and
// RemoveEdge moves the last entry into the freed slot, so
// index-addressed edge draws (EdgeAt(rng.Intn(M()))) are a pure function
// of the construction and mutation sequence. Its entries are packed
// int32 pairs, widened to Edge by EdgeAt and Edges: rewiring reads two
// random entries per proposal, and at half the footprint more of the
// list stays in cache. SwapEnds rewrites two entries in place.
//
// When an insert finds its window full, the window relocates to the
// tail of neigh with fresh slack (per-node free-slot relocation); the
// abandoned capacity is reclaimed by a full compaction once dead space
// exceeds half the arena. Depth>=1 rewiring is degree-preserving and
// therefore never relocates.
//
// CSR is not safe for concurrent mutation; concurrent reads are safe.
type CSR struct {
	start []int32  // window start of node u in neigh/epos
	deg   []int32  // live degree of node u
	wcap  []int32  // window capacity of node u
	neigh []int32  // neighbor arena; windows sorted ascending
	epos  []int32  // parallel to neigh: index into edges
	edges []edge32 // flat edge list, canonical orientation, swap-remove order
	dead  int      // abandoned window capacity awaiting compaction
}

// edge32 is an Edge packed into the CSR's int32 node-id width.
type edge32 struct{ U, V int32 }

func pack(e Edge) edge32 { return edge32{int32(e.U), int32(e.V)} }

func (e edge32) edge() Edge { return Edge{int(e.U), int(e.V)} }

// key orders canonical edges lexicographically by (U, V).
func (e edge32) key() uint64 { return uint64(uint32(e.U))<<32 | uint64(uint32(e.V)) }

// compareEdges is the sorted canonical edge order.
func compareEdges(a, b edge32) int { return cmp.Compare(a.key(), b.key()) }

// checkNodeCount panics unless n node ids fit the CSR's int32 width. It
// runs before a constructor allocates anything.
func checkNodeCount(n int) {
	if n < 0 {
		panic("graph: negative node count")
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: node count %d exceeds int32", n))
	}
}

// NewCSR returns an empty graph with n isolated nodes. It panics if n is
// negative or exceeds math.MaxInt32.
func NewCSR(n int) *CSR {
	checkNodeCount(n)
	return &CSR{
		start: make([]int32, n),
		deg:   make([]int32, n),
		wcap:  make([]int32, n),
	}
}

// NewCSRFromEdges builds a graph with n nodes and the given edges.
// It returns an error if any edge is a self-loop, a duplicate, or refers
// to a node outside [0, n).
func NewCSRFromEdges(n int, edges []Edge) (*CSR, error) {
	c := NewCSR(n)
	c.reserve(edges)
	for _, e := range edges {
		if err := c.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// reserve pre-sizes the windows for a known upcoming edge list so the
// AddEdge loop never relocates. Harmless if some edges later fail
// validation — slack is just slack.
func (c *CSR) reserve(edges []Edge) {
	n := len(c.deg)
	if n == 0 || len(edges) == 0 {
		return
	}
	need := make([]int32, n)
	copy(need, c.deg)
	for _, e := range edges {
		if e.U >= 0 && e.U < n {
			need[e.U]++
		}
		if e.V >= 0 && e.V < n {
			need[e.V]++
		}
	}
	total := 0
	for _, d := range need {
		total += int(d)
	}
	neigh := make([]int32, total)
	eposArr := make([]int32, total)
	var off int32
	for u := 0; u < n; u++ {
		d := c.deg[u]
		copy(neigh[off:off+d], c.window(u))
		copy(eposArr[off:off+d], c.ewindow(u))
		c.start[u] = off
		c.wcap[u] = need[u]
		off += need[u]
	}
	c.neigh, c.epos, c.dead = neigh, eposArr, 0
}

// csrFromCanonicalEdges builds a CSR from an edge list that is already
// simple, in-range, and sorted in canonical order (U < V, sorted by
// (U, V)), taking ownership of edges. Because the list is sorted, each
// node's window fills in ascending neighbor order — backward neighbors
// (from edges where the node is V) arrive before forward ones, both runs
// ascending — so no per-window sort is needed: the whole build is
// O(n + m). Both readers and CanonicalClone use this.
func csrFromCanonicalEdges(n int, edges []edge32) *CSR {
	checkNodeCount(n)
	c := &CSR{
		start: make([]int32, n),
		deg:   make([]int32, n),
		wcap:  make([]int32, n),
		neigh: make([]int32, 2*len(edges)),
		epos:  make([]int32, 2*len(edges)),
		edges: edges,
	}
	for _, e := range edges {
		c.wcap[e.U]++
		c.wcap[e.V]++
	}
	var off int32
	for u := 0; u < n; u++ {
		c.start[u] = off
		off += c.wcap[u]
	}
	fill := make([]int32, n)
	copy(fill, c.start)
	for i, e := range edges {
		c.neigh[fill[e.U]] = e.V
		c.epos[fill[e.U]] = int32(i)
		fill[e.U]++
		c.neigh[fill[e.V]] = e.U
		c.epos[fill[e.V]] = int32(i)
		fill[e.V]++
	}
	copy(c.deg, c.wcap)
	return c
}

// newCSRPreservingOrder builds a CSR from a simple, in-range edge list
// in arbitrary order, taking ownership of edges and keeping it as the
// edge list verbatim.
func newCSRPreservingOrder(n int, edges []edge32) *CSR {
	checkNodeCount(n)
	c := &CSR{
		start: make([]int32, n),
		deg:   make([]int32, n),
		wcap:  make([]int32, n),
		edges: edges,
	}
	c.layOut()
	return c
}

// layOut rebuilds the windows of c from its edge list, which it keeps
// verbatim, reusing the neighbor arena where it is large enough. A
// counting fill places every neighbor with its edge index; each window
// is then sorted with the indices carried along, as packed
// neighbor<<32|index words in a scratch buffer of the largest degree,
// so no edge has to be searched for afterwards. It reports whether
// every window is free of duplicates.
func (c *CSR) layOut() bool {
	if m2 := 2 * len(c.edges); cap(c.neigh) >= m2 && cap(c.epos) >= m2 {
		c.neigh, c.epos = c.neigh[:m2], c.epos[:m2]
	} else {
		c.neigh, c.epos = make([]int32, m2), make([]int32, m2)
	}
	clear(c.wcap)
	for _, e := range c.edges {
		c.wcap[e.U]++
		c.wcap[e.V]++
	}
	var off, maxDeg int32
	for u := range c.start {
		c.start[u] = off
		off += c.wcap[u]
		maxDeg = max(maxDeg, c.wcap[u])
	}
	// deg is the fill cursor of each window; it ends equal to wcap.
	clear(c.deg)
	for i, e := range c.edges {
		p := c.start[e.U] + c.deg[e.U]
		c.neigh[p], c.epos[p] = e.V, int32(i)
		c.deg[e.U]++
		p = c.start[e.V] + c.deg[e.V]
		c.neigh[p], c.epos[p] = e.U, int32(i)
		c.deg[e.V]++
	}
	c.dead = 0
	simple := true
	buf := make([]uint64, maxDeg)
	for u := range c.start {
		w, ew := c.window(u), c.ewindow(u)
		if len(w) < 2 {
			continue
		}
		b := buf[:len(w)]
		for i := range w {
			b[i] = uint64(w[i])<<32 | uint64(uint32(ew[i]))
		}
		slices.Sort(b)
		for i, x := range b {
			w[i], ew[i] = int32(x>>32), int32(uint32(x))
			if i > 0 && w[i-1] == w[i] {
				simple = false
			}
		}
	}
	return simple
}

// RebuildEdges rebuilds c in place from ends, an edge list in slot
// order: edge i joins nodes ends[2i] and ends[2i+1], in either
// orientation, and becomes EdgeAt(i) in canonical orientation. The node
// count stays; the windows come out compact and sorted, in c's own
// arrays where they are large enough. This is the write-back of a
// caller that applied many swaps to its own copy of the edge list: one
// O(m log d) rebuild instead of one SwapEnds per swap. It panics unless
// ends has even length and describes a simple graph on c's nodes; the
// range and self-loop checks run before c is touched, the duplicate
// check after.
func (c *CSR) RebuildEdges(ends []int32) {
	if len(ends)%2 != 0 {
		panic("graph: RebuildEdges of an odd-length end list")
	}
	n := int32(len(c.deg))
	for i := 0; i < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: RebuildEdges edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u == v {
			panic(fmt.Sprintf("graph: RebuildEdges self-loop at node %d", u))
		}
	}
	m := len(ends) / 2
	if cap(c.edges) < m {
		c.edges = make([]edge32, m)
	}
	c.edges = c.edges[:m]
	for i := range c.edges {
		u, v := ends[2*i], ends[2*i+1]
		if u > v {
			u, v = v, u
		}
		c.edges[i] = edge32{u, v}
	}
	if !c.layOut() {
		panic("graph: RebuildEdges of a duplicate edge")
	}
}

// window returns u's live neighbor window.
func (c *CSR) window(u int) []int32 {
	s := c.start[u]
	return c.neigh[s : s+c.deg[u]]
}

// ewindow returns u's live edge-index window (parallel to window).
func (c *CSR) ewindow(u int) []int32 {
	s := c.start[u]
	return c.epos[s : s+c.deg[u]]
}

// find binary-searches v in u's sorted window and returns the position
// it holds (or would hold) and whether it is present.
func (c *CSR) find(u, v int) (int, bool) {
	w := c.window(u)
	lo, hi := 0, len(w)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(w[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(w) && int(w[lo]) == v
}

// N returns the number of nodes.
func (c *CSR) N() int { return len(c.deg) }

// M returns the number of edges.
func (c *CSR) M() int { return len(c.edges) }

// AddNode appends a new isolated node and returns its identifier. It
// panics if the node count would exceed math.MaxInt32.
func (c *CSR) AddNode() int {
	checkNodeCount(len(c.deg) + 1)
	c.start = append(c.start, int32(len(c.neigh)))
	c.deg = append(c.deg, 0)
	c.wcap = append(c.wcap, 0)
	return len(c.deg) - 1
}

// Degree returns the degree of node u.
func (c *CSR) Degree(u int) int { return int(c.deg[u]) }

// HasEdge reports whether the edge (u,v) exists. Out-of-range arguments
// report false rather than panicking, which simplifies rewiring loops
// that probe speculative endpoints.
func (c *CSR) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(c.deg) || v >= len(c.deg) {
		return false
	}
	_, ok := c.find(u, v)
	return ok
}

// AddEdge inserts the undirected edge (u,v). It returns an error for
// self-loops, duplicate edges, and out-of-range endpoints.
func (c *CSR) AddEdge(u, v int) error {
	switch {
	case u < 0 || u >= len(c.deg) || v < 0 || v >= len(c.deg):
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(c.deg))
	case u == v:
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	pu, ok := c.find(u, v)
	if ok {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	idx := int32(len(c.edges))
	c.edges = append(c.edges, pack(Edge{u, v}.Canon()))
	c.insertAt(u, pu, int32(v), idx)
	pv, _ := c.find(v, u)
	c.insertAt(v, pv, int32(u), idx)
	return nil
}

// insertAt places neighbor w with edge index eidx at position pos of
// u's window, relocating the window first if it is full.
func (c *CSR) insertAt(u, pos int, w, eidx int32) {
	if c.deg[u] == c.wcap[u] {
		c.relocate(u)
	}
	s, d := int(c.start[u]), int(c.deg[u])
	copy(c.neigh[s+pos+1:s+d+1], c.neigh[s+pos:s+d])
	copy(c.epos[s+pos+1:s+d+1], c.epos[s+pos:s+d])
	c.neigh[s+pos] = w
	c.epos[s+pos] = eidx
	c.deg[u]++
}

// relocate moves u's full window to the tail of the arena with fresh
// slack, leaving the old slots dead until the next compaction. The
// compaction check runs first so it can never strip the slack this
// call is about to add.
func (c *CSR) relocate(u int) {
	if c.dead > len(c.neigh)/2 && c.dead > 4096 {
		c.compact()
	}
	d := int(c.deg[u])
	newCap := d + d/2 + 4
	s := int(c.start[u])
	c.dead += int(c.wcap[u])
	ns := len(c.neigh)
	c.neigh = append(c.neigh, c.neigh[s:s+d]...)
	c.neigh = append(c.neigh, make([]int32, newCap-d)...)
	c.epos = append(c.epos, c.epos[s:s+d]...)
	c.epos = append(c.epos, make([]int32, newCap-d)...)
	c.start[u] = int32(ns)
	c.wcap[u] = int32(newCap)
}

// compact rebuilds the arena contiguously, dropping dead slots and
// abandoning per-node slack (relocation re-adds slack on demand).
func (c *CSR) compact() {
	total := 0
	for u := range c.deg {
		total += int(c.deg[u])
	}
	neigh := make([]int32, total)
	eposArr := make([]int32, total)
	var off int32
	for u := range c.deg {
		d := c.deg[u]
		copy(neigh[off:off+d], c.window(u))
		copy(eposArr[off:off+d], c.ewindow(u))
		c.start[u] = off
		c.wcap[u] = d
		off += d
	}
	c.neigh, c.epos, c.dead = neigh, eposArr, 0
}

// RemoveEdge deletes the undirected edge (u,v) and reports whether it
// was present. The last entry of the edge list moves into the deleted
// edge's slot.
func (c *CSR) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(c.deg) || v >= len(c.deg) {
		return false
	}
	pu, ok := c.find(u, v)
	if !ok {
		return false
	}
	eidx := int(c.epos[int(c.start[u])+pu])
	c.deleteAt(u, pu)
	pv, _ := c.find(v, u)
	c.deleteAt(v, pv)
	last := len(c.edges) - 1
	if eidx != last {
		c.setEdge(eidx, c.edges[last])
	}
	c.edges = c.edges[:last]
	return true
}

// SwapEnds replaces the edges (u,v) and (x,y) with (u,y) and (x,v) in
// place: the degree-preserving double-edge swap of rewiring. Both edge
// indices keep their slots, so the edge that was (u,v) is now (u,y) and
// the one that was (x,y) is now (x,v). Each of the four windows moves one
// neighbor by a single rotation; nothing relocates and no other edge
// index changes. It returns an error, leaving c unchanged, unless the
// four nodes are distinct and in range, both old edges exist and neither
// new edge does.
func (c *CSR) SwapEnds(u, v, x, y int) error {
	n := len(c.deg)
	for _, w := range [4]int{u, v, x, y} {
		if w < 0 || w >= n {
			return fmt.Errorf("graph: swap node %d out of range [0,%d)", w, n)
		}
	}
	if u == v || u == x || u == y || v == x || v == y || x == y {
		return fmt.Errorf("graph: swap (%d,%d),(%d,%d) repeats a node", u, v, x, y)
	}
	pu, okU := c.find(u, v)
	px, okX := c.find(x, y)
	if !okU || !okX {
		return fmt.Errorf("graph: swap (%d,%d),(%d,%d) of a missing edge", u, v, x, y)
	}
	if c.HasEdge(u, y) || c.HasEdge(x, v) {
		return fmt.Errorf("graph: swap (%d,%d),(%d,%d) would duplicate an edge", u, v, x, y)
	}
	pv, _ := c.find(v, u)
	py, _ := c.find(y, x)
	e1 := c.epos[int(c.start[u])+pu]
	e2 := c.epos[int(c.start[x])+px]
	c.rotate(u, pu, int32(y), e1)
	c.rotate(v, pv, int32(x), e2)
	c.rotate(x, px, int32(v), e2)
	c.rotate(y, py, int32(u), e1)
	c.edges[e1] = pack(Edge{u, y}.Canon())
	c.edges[e2] = pack(Edge{x, v}.Canon())
	return nil
}

// rotate replaces the neighbor at position p of u's window with w, of
// edge index e, which u's window must not hold yet. The entries between
// p and w's sorted position shift by one toward p, so the window stays
// sorted; the scan walks only the entries that move.
func (c *CSR) rotate(u, p int, w, e int32) {
	s, d := int(c.start[u]), int(c.deg[u])
	nb, ep := c.neigh[s:s+d], c.epos[s:s+d]
	for ; p+1 < d && nb[p+1] < w; p++ {
		nb[p], ep[p] = nb[p+1], ep[p+1]
	}
	for ; p > 0 && nb[p-1] > w; p-- {
		nb[p], ep[p] = nb[p-1], ep[p-1]
	}
	nb[p], ep[p] = w, e
}

// RequeueEdges leaves the edge list exactly as removing the given edges
// one after another with RemoveEdge and then adding them back in reverse
// order would, without touching the neighbor windows. A move that is
// scored, rejected and never applied therefore leaves the same EdgeAt
// order as one applied and reverted. Every edge must be present.
func (c *CSR) RequeueEdges(es ...Edge) {
	for _, e := range es {
		a, b := e.U, e.V
		if c.deg[b] < c.deg[a] {
			a, b = b, a
		}
		p, _ := c.find(a, b)
		eidx := int(c.epos[int(c.start[a])+p])
		last := len(c.edges) - 1
		if eidx != last {
			c.setEdge(eidx, c.edges[last])
		}
		c.edges = c.edges[:last]
	}
	for i := len(es) - 1; i >= 0; i-- {
		c.edges = append(c.edges, edge32{})
		c.setEdge(len(c.edges)-1, pack(es[i].Canon()))
	}
}

// setEdge stores e at index i of the edge list and points both of its
// window slots at i.
func (c *CSR) setEdge(i int, e edge32) {
	c.edges[i] = e
	u, v := int(e.U), int(e.V)
	p, _ := c.find(u, v)
	c.epos[int(c.start[u])+p] = int32(i)
	p, _ = c.find(v, u)
	c.epos[int(c.start[v])+p] = int32(i)
}

// deleteAt removes position pos from u's window, shifting the suffix
// left.
func (c *CSR) deleteAt(u, pos int) {
	s, d := int(c.start[u]), int(c.deg[u])
	copy(c.neigh[s+pos:s+d-1], c.neigh[s+pos+1:s+d])
	copy(c.epos[s+pos:s+d-1], c.epos[s+pos+1:s+d])
	c.deg[u]--
}

// EdgeAt returns the i'th edge of the internal edge list. Indices are
// only stable between mutations; the intended use is uniform random
// edge selection via EdgeAt(rng.Intn(c.M())).
func (c *CSR) EdgeAt(i int) Edge { return c.edges[i].edge() }

// Edges returns a copy of the edge list in canonical orientation.
func (c *CSR) Edges() []Edge {
	out := make([]Edge, len(c.edges))
	for i, e := range c.edges {
		out[i] = e.edge()
	}
	return out
}

// SortedEdges returns the edge list sorted lexicographically.
func (c *CSR) SortedEdges() []Edge {
	out := c.Edges()
	slices.SortFunc(out, func(a, b Edge) int { return compareEdges(pack(a), pack(b)) })
	return out
}

// EdgesCanonicallyOrdered reports whether the internal edge list is in
// sorted canonical order — the order EdgeAt exposes.
func (c *CSR) EdgesCanonicallyOrdered() bool {
	for i := 1; i < len(c.edges); i++ {
		if c.edges[i-1].key() >= c.edges[i].key() {
			return false
		}
	}
	return true
}

// CanonicalClone returns a copy of c whose edge list is in sorted
// canonical order, so index-addressed edge draws are a pure function of
// the edge set rather than of construction order.
func (c *CSR) CanonicalClone() *CSR {
	edges := slices.Clone(c.edges)
	slices.SortFunc(edges, compareEdges)
	return csrFromCanonicalEdges(c.N(), edges)
}

// VisitNeighbors calls f for every neighbor of u, in ascending order,
// until f returns false.
func (c *CSR) VisitNeighbors(u int, f func(v int) bool) {
	for _, v := range c.window(u) {
		if !f(int(v)) {
			return
		}
	}
}

// Neighbors returns the sorted neighbor window of u as a shared
// subslice. It is valid only until the next mutation of c; callers must
// not modify or retain it across mutations.
func (c *CSR) Neighbors(u int) []int32 { return c.window(u) }

// AppendNeighbors appends the neighbors of u to dst, in ascending
// order, and returns the extended slice.
func (c *CSR) AppendNeighbors(dst []int, u int) []int {
	for _, v := range c.window(u) {
		dst = append(dst, int(v))
	}
	return dst
}

// DegreeSequence returns the degree of every node, indexed by node.
func (c *CSR) DegreeSequence() []int {
	out := make([]int, len(c.deg))
	for u, d := range c.deg {
		out[u] = int(d)
	}
	return out
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (c *CSR) MaxDegree() int {
	max := 0
	for _, d := range c.deg {
		if int(d) > max {
			max = int(d)
		}
	}
	return max
}

// AvgDegree returns the average node degree 2m/n, or 0 for an empty
// graph.
func (c *CSR) AvgDegree() float64 {
	if len(c.deg) == 0 {
		return 0
	}
	return 2 * float64(len(c.edges)) / float64(len(c.deg))
}

// CommonNeighborCount returns the number of nodes adjacent to both u
// and v, by merging the two sorted windows.
func (c *CSR) CommonNeighborCount(u, v int) int {
	a, b := c.window(u), c.window(v)
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Clone returns a deep copy of c with the arena compacted.
func (c *CSR) Clone() *CSR {
	n := c.N()
	total := 0
	for u := 0; u < n; u++ {
		total += int(c.deg[u])
	}
	cl := &CSR{
		start: make([]int32, n),
		deg:   make([]int32, n),
		wcap:  make([]int32, n),
		neigh: make([]int32, total),
		epos:  make([]int32, total),
		edges: make([]edge32, len(c.edges)),
	}
	copy(cl.deg, c.deg)
	copy(cl.edges, c.edges)
	var off int32
	for u := 0; u < n; u++ {
		d := c.deg[u]
		copy(cl.neigh[off:off+d], c.window(u))
		copy(cl.epos[off:off+d], c.ewindow(u))
		cl.start[u] = off
		cl.wcap[u] = d
		off += d
	}
	return cl
}

// Equal reports whether c and h have identical node counts and edge
// sets.
func (c *CSR) Equal(h *CSR) bool {
	if c.N() != h.N() || c.M() != h.M() {
		return false
	}
	for _, e := range c.edges {
		if !h.HasEdge(int(e.U), int(e.V)) {
			return false
		}
	}
	return true
}

// Graph is CSR under the name of the retired map-adjacency type.
//
// Deprecated: an alias kept only for the dkperf benchmark module until
// its next change; use CSR.
type Graph = CSR

// CSR returns c itself.
//
// Deprecated: kept only for the dkperf benchmark module until its next
// change; use c directly.
func (c *CSR) CSR() *CSR { return c }

// Static is CSR under its former snapshot name.
//
// Deprecated: a read-only alias kept only for the dkperf benchmark module
// until its next change; use CSR.
type Static = CSR

// Static returns c itself, as a read-only view.
//
// Deprecated: kept only for the dkperf benchmark module until its next
// change; pass c directly.
func (c *CSR) Static() *CSR { return c }
