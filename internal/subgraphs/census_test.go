package subgraphs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func build(t *testing.T, n int, edges [][2]int) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mapCensus is the map-keyed census form the test references count
// into and the map Delta applies to.
type mapCensus struct {
	Wedges    map[WedgeKey]int64
	Triangles map[TriangleKey]int64
}

func newMapCensus() *mapCensus {
	return &mapCensus{Wedges: make(map[WedgeKey]int64), Triangles: make(map[TriangleKey]int64)}
}

// mapOf converts a census to map form.
func mapOf(c *Census) *mapCensus {
	m := newMapCensus()
	for _, w := range c.Wedges {
		m.Wedges[w.Key] = w.Count
	}
	for _, t := range c.Triangles {
		m.Triangles[t.Key] = t.Count
	}
	return m
}

// census converts m to a canonical Census, dropping zero counts.
func (m *mapCensus) census() *Census {
	c := NewCensus()
	for k, v := range m.Wedges {
		if v != 0 {
			c.Wedges = append(c.Wedges, WedgeCount{k, v})
		}
	}
	for k, v := range m.Triangles {
		if v != 0 {
			c.Triangles = append(c.Triangles, TriangleCount{k, v})
		}
	}
	sortClasses(c.Wedges)
	sortClasses(c.Triangles)
	return c
}

// bruteCensus enumerates all node triples.
func bruteCensus(g *graph.CSR) *mapCensus {
	c := newMapCensus()
	n := g.N()
	deg := g.DegreeSequence()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				ij := g.HasEdge(i, j)
				ik := g.HasEdge(i, k)
				jk := g.HasEdge(j, k)
				switch {
				case ij && ik && jk:
					c.Triangles[NewTriangleKey(deg[i], deg[j], deg[k])]++
				case ij && ik:
					c.Wedges[NewWedgeKey(deg[j], deg[i], deg[k])]++
				case ij && jk:
					c.Wedges[NewWedgeKey(deg[i], deg[j], deg[k])]++
				case ik && jk:
					c.Wedges[NewWedgeKey(deg[i], deg[k], deg[j])]++
				}
			}
		}
	}
	return c
}

func TestWedgeKeyCanonical(t *testing.T) {
	if NewWedgeKey(5, 2, 3) != (WedgeKey{3, 2, 5}) {
		t.Error("wedge key ends not sorted")
	}
	if NewWedgeKey(3, 2, 5) != NewWedgeKey(5, 2, 3) {
		t.Error("wedge keys of isomorphic wedges differ")
	}
}

func TestTriangleKeyCanonical(t *testing.T) {
	want := TriangleKey{1, 2, 3}
	perms := [][3]int{{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1}}
	for _, p := range perms {
		if got := NewTriangleKey(p[0], p[1], p[2]); got != want {
			t.Errorf("NewTriangleKey(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestCountTriangleGraph(t *testing.T) {
	g := build(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
	c := Count(g)
	if c.TotalWedges() != 0 {
		t.Errorf("K3 wedges = %d, want 0", c.TotalWedges())
	}
	if c.Triangle(TriangleKey{2, 2, 2}) != 1 || c.TotalTriangles() != 1 {
		t.Errorf("K3 triangles = %v", c.Triangles)
	}
}

func TestCountPath3(t *testing.T) {
	g := build(t, 3, [][2]int{{0, 1}, {1, 2}})
	c := Count(g)
	if c.Wedge(WedgeKey{1, 2, 1}) != 1 || c.TotalWedges() != 1 {
		t.Errorf("P3 wedges = %v", c.Wedges)
	}
	if c.TotalTriangles() != 0 {
		t.Errorf("P3 triangles = %v", c.Triangles)
	}
}

func TestCountStar(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := Count(g)
	if c.Wedge(WedgeKey{1, 3, 1}) != 3 || c.TotalWedges() != 3 {
		t.Errorf("K1,3 wedges = %v", c.Wedges)
	}
}

// TestCountPaperExample is the worked size-4 example from Section 3 of the
// paper: the "paw" graph with degrees 1,2,2,3, where P(2,3) = 2 edges, the
// 3K-distribution has 2 wedges of class (1,3,2) and one (2,2,3) triangle.
func TestCountPaperExample(t *testing.T) {
	// Triangle 0,1,2 plus pendant 3 attached to 2.
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := Count(g)
	if got := c.Wedge(WedgeKey{1, 3, 2}); got != 2 {
		t.Errorf("wedge class (1,3,2) = %d, want 2 (census: %v)", got, c.Wedges)
	}
	if got := c.Triangle(TriangleKey{2, 2, 3}); got != 1 {
		t.Errorf("triangle class (2,2,3) = %d, want 1 (census: %v)", got, c.Triangles)
	}
	if c.TotalWedges() != 2 || c.TotalTriangles() != 1 {
		t.Errorf("totals: wedges=%d triangles=%d, want 2,1", c.TotalWedges(), c.TotalTriangles())
	}
}

func randomGraph(rng *rand.Rand, n, m int) *graph.CSR {
	g := graph.NewCSR(n)
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func TestCountMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := randomGraph(rng, n, m)
		return Count(g).Equal(bruteCensus(g).census())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// countReference is the counter Count replaced: per-center neighbor-pair
// enumeration with a HasEdge probe per pair. It is kept as the
// differential oracle for the class-histogram counter on graphs large
// enough that brute-force triple enumeration is unaffordable.
func countReference(s *graph.CSR) *mapCensus {
	c := newMapCensus()
	n := s.N()
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = s.Degree(u)
	}
	for center := 0; center < n; center++ {
		nbrs := s.Neighbors(center)
		for i := 0; i < len(nbrs); i++ {
			a := int(nbrs[i])
			for j := i + 1; j < len(nbrs); j++ {
				b := int(nbrs[j])
				if s.HasEdge(a, b) {
					if center < a {
						c.Triangles[NewTriangleKey(deg[center], deg[a], deg[b])]++
					}
				} else {
					c.Wedges[NewWedgeKey(deg[a], deg[center], deg[b])]++
				}
			}
		}
	}
	return c
}

// hubGraph builds a graph whose top node degrees cross
// DefaultBitsetThreshold, exercising the bitset probe path of Count.
func hubGraph(rng *rand.Rand, n, m int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	for v := 1; v < n/2; v++ {
		if !g.HasEdge(0, v) {
			if err := g.AddEdge(0, v); err != nil {
				panic(err)
			}
		}
	}
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

// TestCountMatchesReferenceHubGraph pins the fast counter against the old
// pair-enumeration counter on a hub-heavy graph (max degree well past the
// bitset threshold) — the regime the rewrite exists for.
func TestCountMatchesReferenceHubGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := hubGraph(rng, 400, 1400)
	if s.MaxDegree() < DefaultBitsetThreshold {
		t.Fatalf("max degree %d below bitset threshold %d; test graph too tame", s.MaxDegree(), DefaultBitsetThreshold)
	}
	got, want := Count(s), countReference(s).census()
	if !got.Equal(want) {
		t.Errorf("fast census disagrees with reference: got %d wedges/%d triangles, want %d/%d",
			got.TotalWedges(), got.TotalTriangles(), want.TotalWedges(), want.TotalTriangles())
	}
}

// TestCountMatchesReferenceMapFallback once forced Count's packed-key map
// fallback (denseLimit exceeded). Count now has a single accumulation
// path that denseLimit does not affect; the test keeps pinning that.
func TestCountMatchesReferenceMapFallback(t *testing.T) {
	old := denseLimit
	denseLimit = 1
	defer func() { denseLimit = old }()
	rng := rand.New(rand.NewSource(7))
	s := hubGraph(rng, 200, 700)
	if !Count(s).Equal(countReference(s).census()) {
		t.Error("map-fallback census disagrees with reference")
	}
}

// manyClassGraph is a random tree on n nodes whose first hubs nodes are
// topped up to degrees 4, 5, …: more than hubs distinct degrees.
func manyClassGraph(rng *rand.Rand, n, hubs int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	for k := 0; k < hubs; k++ {
		for g.Degree(k) < 4+k {
			if v := rng.Intn(n); v != k && !g.HasEdge(k, v) {
				if err := g.AddEdge(k, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// TestCountMatchesReferenceManyClasses covers at least 102 degree
// classes: nc³ above 2²⁰, the regime that ran on packed-key maps before
// Count moved to per-class planes.
func TestCountMatchesReferenceManyClasses(t *testing.T) {
	s := manyClassGraph(rand.New(rand.NewSource(5)), 1000, 150)
	classes := map[int]bool{}
	for u := 0; u < s.N(); u++ {
		classes[s.Degree(u)] = true
	}
	if len(classes) < 102 {
		t.Fatalf("%d degree classes, want >= 102", len(classes))
	}
	if !Count(s).Equal(countReference(s).census()) {
		t.Error("many-class census disagrees with reference")
	}
}

// megaHubGraph joins node 0 to 90 % of the other nodes. Most of those
// are paired off into triangles with the hub (degree 2); the last tenth
// hang off random nodes, and a few random chords join the unpaired ones.
func megaHubGraph(rng *rand.Rand, n int) *graph.CSR {
	g := graph.NewCSR(n)
	add := func(u, v int) {
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	for v := 1; v < n*9/10; v++ {
		add(0, v)
	}
	for v := 1; v+1 < n*3/5; v += 2 {
		add(v, v+1)
	}
	for v := n * 9 / 10; v < n; v++ {
		add(v, 1+rng.Intn(n-1))
	}
	for i := 0; i < n/10; i++ {
		add(n*3/5+rng.Intn(n*2/5), n*3/5+rng.Intn(n*2/5))
	}
	return g
}

// TestCountMatchesReferenceMegaHub pins Count on a graph where one node
// is adjacent to most others and most of its neighbors have degree 2:
// every closed pair around a degree-2 center sits next to the hub, whose
// window it must not walk.
func TestCountMatchesReferenceMegaHub(t *testing.T) {
	s := megaHubGraph(rand.New(rand.NewSource(11)), 2000)
	deg2 := 0
	for u := 0; u < s.N(); u++ {
		if s.Degree(u) == 2 {
			deg2++
		}
	}
	if s.Degree(0) < s.N()*4/5 || deg2 < s.N()/2 {
		t.Fatalf("hub degree %d, %d degree-2 nodes; test graph too tame", s.Degree(0), deg2)
	}
	if !Count(s).Equal(countReference(s).census()) {
		t.Error("mega-hub census disagrees with reference")
	}
}

// FuzzCountMatchesReference turns fuzz bytes into a small graph — node
// 0 joined to the first data[1] mod n nodes, which reaches the bitset
// threshold, plus one edge per later byte pair — and checks Count
// against the pair-enumeration reference and the P3→P2 identity
// Σ_v C(deg v, 2) = wedges + 3·triangles. It also counts the graph on
// 4 workers with the parallel cutoff at zero, so class offsets, the
// move over the slack and the triangle gather meet odd class layouts,
// and checks that census against the serial one.
func FuzzCountMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 1, 2, 2, 3, 3, 1, 4, 5})
	f.Add([]byte{97, 80, 1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 1, 10, 1, 11})
	f.Add([]byte{125, 127, 1, 2, 2, 3, 70, 71, 100, 101, 100, 102, 101, 102})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 3 + int(data[0])%126
		s := graph.NewCSR(n)
		add := func(u, v int) {
			if u != v && !s.HasEdge(u, v) {
				if err := s.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := 1; v <= int(data[1])%n; v++ {
			add(0, v)
		}
		for i := 2; i+1 < len(data); i += 2 {
			add(int(data[i])%n, int(data[i+1])%n)
		}
		c := Count(s)
		if !c.Equal(countReference(s).census()) {
			t.Fatalf("census disagrees with reference on n=%d, m=%d", n, s.M())
		}
		parallel.SetWorkers(4)
		var par *Census
		WithParallelPairs(0, func() { par = Count(s) })
		parallel.SetWorkers(0)
		if !par.Equal(c) || cap(par.Wedges) != cap(c.Wedges) {
			t.Fatalf("census at 4 workers differs from the serial one on n=%d, m=%d", n, s.M())
		}
		var pairs int64
		for u := 0; u < n; u++ {
			d := int64(s.Degree(u))
			pairs += d * (d - 1) / 2
		}
		if w, tr := c.TotalWedges(), c.TotalTriangles(); pairs != w+3*tr {
			t.Fatalf("Σ C(deg, 2) = %d, wedges + 3·triangles = %d + 3·%d", pairs, w, tr)
		}
	})
}

// TestCountWedgeCapacity checks that Count allocates its wedge array
// once, at the pre-pass bound, and that the bound is what the pre-pass
// promises: the number of distinct wedge keys over every neighbor pair
// of every center, open or closed. An undercount would make the append
// grow the array; cap would then differ from the bound.
func TestCountWedgeCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []*graph.CSR{
		build(t, 3, [][2]int{{0, 1}, {1, 2}, {0, 2}}),
		randomGraph(rng, 40, 150),
		hubGraph(rng, 300, 1000),
		manyClassGraph(rng, 1000, 150),
		megaHubGraph(rng, 400),
	} {
		keys := map[WedgeKey]bool{}
		for u := 0; u < g.N(); u++ {
			nb := g.Neighbors(u)
			for i, a := range nb {
				for _, b := range nb[i+1:] {
					keys[NewWedgeKey(g.Degree(int(a)), g.Degree(u), g.Degree(int(b)))] = true
				}
			}
		}
		c := Count(g)
		if cap(c.Wedges) != len(keys) || len(c.Wedges) > len(keys) {
			t.Errorf("n=%d m=%d: %d wedge classes, cap %d, want cap %d", g.N(), g.M(), len(c.Wedges), cap(c.Wedges), len(keys))
		}
	}
}

// TestDeltaMatchesRecountProperty verifies the incremental delta machinery
// against full recounts across random degree-preserving double-edge swaps:
// the foundation of all 3K rewiring.
func TestDeltaMatchesRecountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		m := 4 + rng.Intn(n*(n-1)/2-3)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		before := mapOf(Count(g))

		// Try to find a valid degree-preserving swap.
		for attempt := 0; attempt < 200; attempt++ {
			e1 := g.EdgeAt(rng.Intn(g.M()))
			e2 := g.EdgeAt(rng.Intn(g.M()))
			u, v, x, y := e1.U, e1.V, e2.U, e2.V
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			// Swap to (u,y) and (x,v).
			if u == y || x == v || u == x || v == y {
				continue
			}
			if g.HasEdge(u, y) || g.HasEdge(x, v) {
				continue
			}
			d := NewDelta()
			d.RemoveEdge(g, deg, u, v)
			g.RemoveEdge(u, v)
			d.RemoveEdge(g, deg, x, y)
			g.RemoveEdge(x, y)
			d.AddEdge(g, deg, u, y)
			g.AddEdge(u, y)
			d.AddEdge(g, deg, x, v)
			g.AddEdge(x, v)

			after := Count(g)
			d.ApplyTo(before)
			return before.census().Equal(after)
		}
		return true // no valid swap found; vacuously fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeltaIsZeroAndReset(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	deg := g.DegreeSequence()
	d := NewDelta()
	if !d.IsZero() {
		t.Error("fresh delta not zero")
	}
	d.RemoveEdge(g, deg, 1, 2)
	if d.IsZero() {
		t.Error("delta after removal is zero")
	}
	d.Reset()
	if !d.IsZero() {
		t.Error("reset delta not zero")
	}
}

// TestDeltaAddRemoveCancel checks that removing and re-adding the same edge
// yields a zero delta.
func TestDeltaAddRemoveCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 15, 40)
	deg := g.DegreeSequence()
	d := NewDelta()
	e := g.EdgeAt(0)
	d.RemoveEdge(g, deg, e.U, e.V)
	g.RemoveEdge(e.U, e.V)
	d.AddEdge(g, deg, e.U, e.V)
	g.AddEdge(e.U, e.V)
	if !d.IsZero() {
		t.Errorf("remove+add delta not zero: wedges=%v triangles=%v", d.Wedges, d.Triangles)
	}
}

func TestCensusClone(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := Count(g)
	cl := c.Clone()
	if !c.Equal(cl) {
		t.Fatal("clone not equal")
	}
	cl.Wedges[0].Count += 5
	if c.Equal(cl) {
		t.Error("mutating clone affected original comparison")
	}
}

func TestSize4CensusPaw(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	c := CountSize4(g)
	want := Size4Census{Path4: 2, Claw: 1, Cycle4: 0, Paw: 1, Diamond: 0, K4: 0}
	if c != want {
		t.Errorf("paw census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusK4(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	c := CountSize4(g)
	// K4 contains: 4 claws (one per center), 12 P4s (4!/2), 3 C4s,
	// 12 paws (4 triangles × 3 pendant choices... each triangle has 3
	// vertices each with degree 3 → (3-2)*3 = 3 per triangle × 4 = 12),
	// 6 diamonds, 1 K4.
	want := Size4Census{Path4: 12, Claw: 4, Cycle4: 3, Paw: 12, Diamond: 6, K4: 1}
	if c != want {
		t.Errorf("K4 census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusCycle(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	c := CountSize4(g)
	want := Size4Census{Path4: 4, Claw: 0, Cycle4: 1, Paw: 0, Diamond: 0, K4: 0}
	if c != want {
		t.Errorf("C4 census = %+v, want %+v", c, want)
	}
}

func TestSize4CensusStar(t *testing.T) {
	g := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	c := CountSize4(g)
	want := Size4Census{Path4: 0, Claw: 1}
	if c != want {
		t.Errorf("K1,3 census = %+v, want %+v", c, want)
	}
}
