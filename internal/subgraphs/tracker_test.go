package subgraphs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randomValidSwap draws a double-edge swap (u,v),(x,y) → (u,y),(x,v) that
// is structurally valid on g (distinct endpoints, replacement edges
// absent), or ok = false if the draw failed.
func randomValidSwap(rng *rand.Rand, g *graph.CSR) (u, v, x, y int, ok bool) {
	e1 := g.EdgeAt(rng.Intn(g.M()))
	e2 := g.EdgeAt(rng.Intn(g.M()))
	u, v = e1.U, e1.V
	x, y = e2.U, e2.V
	if rng.Intn(2) == 0 {
		u, v = v, u
	}
	if rng.Intn(2) == 0 {
		x, y = y, x
	}
	if u == x || u == y || v == x || v == y {
		return 0, 0, 0, 0, false
	}
	if g.HasEdge(u, y) || g.HasEdge(x, v) {
		return 0, 0, 0, 0, false
	}
	return u, v, x, y, true
}

// randomJDDSwap is randomValidSwap restricted to the swaps SwapDelta
// takes: those that keep the joint degree distribution, deg v == deg y
// or deg u == deg x.
func randomJDDSwap(rng *rand.Rand, g *graph.CSR, deg []int) (u, v, x, y int, ok bool) {
	u, v, x, y, ok = randomValidSwap(rng, g)
	if !ok || deg[v] != deg[y] && deg[u] != deg[x] {
		return 0, 0, 0, 0, false
	}
	return u, v, x, y, true
}

// orientations counts the JDD-preserving swaps a test drew by the
// orientation SwapDelta walks: deg v == deg y as given, or only
// deg u == deg x, which SwapDelta reads as (v,u),(y,x) → (v,x),(y,u).
type orientations struct{ direct, flipped int }

func (o *orientations) add(deg []int, v, y int) {
	if deg[v] == deg[y] {
		o.direct++
	} else {
		o.flipped++
	}
}

func (o orientations) check(t *testing.T, min int) {
	t.Helper()
	if o.direct < min || o.flipped < min {
		t.Fatalf("orientations exercised: %d direct, %d flipped; want >= %d each", o.direct, o.flipped, min)
	}
}

// mapDeltaOfSwap computes the swap's census delta with the map-keyed
// Delta via apply-and-revert on a clone — the reference implementation.
func mapDeltaOfSwap(g *graph.CSR, deg []int, u, v, x, y int) *Census {
	work := g.Clone()
	d := NewDelta()
	d.RemoveEdge(work, deg, u, v)
	work.RemoveEdge(u, v)
	d.RemoveEdge(work, deg, x, y)
	work.RemoveEdge(x, y)
	d.AddEdge(work, deg, u, y)
	if err := work.AddEdge(u, y); err != nil {
		panic(err)
	}
	d.AddEdge(work, deg, x, v)
	if err := work.AddEdge(x, v); err != nil {
		panic(err)
	}
	c := newMapCensus()
	d.ApplyTo(c)
	return c.census()
}

func drain(td *TrackerDelta) *Census {
	c := NewCensus()
	td.Drain(c)
	return c
}

// pathTracker is a Tracker on one of SwapDelta's paths.
type pathTracker struct {
	name string
	tr   *Tracker
	td   *TrackerDelta
}

// pathTrackers builds Trackers over g on the three delta paths: sorted
// window merges (default threshold), bitset probes for every node
// (threshold 1) and the packed-map fallback (denseLimit 0).
func pathTrackers(t *testing.T, g *graph.CSR, deg []int) []pathTracker {
	t.Helper()
	merge := NewTracker(g, deg)
	bits := newTrackerThreshold(g, deg, 1)
	old := denseLimit
	denseLimit = 0
	maps := NewTracker(g, deg)
	denseLimit = old
	if maps.dense || !merge.dense || !bits.dense {
		t.Fatalf("dense-path selection broken: map=%v merge=%v bits=%v", maps.dense, merge.dense, bits.dense)
	}
	out := []pathTracker{{"merge", merge, nil}, {"bitset", bits, nil}, {"map", maps, nil}}
	for i := range out {
		out[i].td = out[i].tr.NewDelta()
	}
	return out
}

// checkSwap pins every path's SwapDelta for the swap against want.
func checkSwap(t *testing.T, paths []pathTracker, want *Census, u, v, x, y int) bool {
	t.Helper()
	for _, p := range paths {
		p.tr.SwapDelta(p.td, u, v, x, y)
		if !drain(p.td).Equal(want) {
			t.Logf("%s path mismatch: swap=(%d,%d)(%d,%d)", p.name, u, v, x, y)
			return false
		}
	}
	return true
}

// TestTrackerSwapDeltaMatchesDelta pits the read-only dense SwapDelta
// against the map-keyed apply-and-revert reference on random graphs and
// random JDD-preserving swaps in both orientations, across the merge
// path, the bitset path and the packed-map fallback.
func TestTrackerSwapDeltaMatchesDelta(t *testing.T) {
	var seen orientations
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(24)
		m := 4 + rng.Intn(n*(n-1)/2-3)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		paths := pathTrackers(t, g.Clone(), deg)
		for tries := 0; tries < 60; tries++ {
			u, v, x, y, ok := randomJDDSwap(rng, g, deg)
			if !ok {
				continue
			}
			seen.add(deg, v, y)
			if !checkSwap(t, paths, mapDeltaOfSwap(g, deg, u, v, x, y), u, v, x, y) {
				t.Logf("seed=%d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	seen.check(t, 20)
}

// TestTrackerSwapDeltaJDDMatchesSwapDelta checks that a swap gives the
// same delta whichever way its arguments name it: (u,v),(x,y) and the
// same swap read as (v,u),(y,x). When both deg v == deg y and
// deg u == deg x hold, the two readings walk different neighborhoods
// (N(v) and N(y), or N(u) and N(x)); both must match the map reference,
// on every path.
func TestTrackerSwapDeltaJDDMatchesSwapDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var seen orientations
	both := 0
	for round := 0; round < 200; round++ {
		n := 6 + rng.Intn(24)
		m := 5 + rng.Intn(n*(n-1)/2-4)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		paths := pathTrackers(t, g.Clone(), deg)
		for tries := 0; tries < 40; tries++ {
			u, v, x, y, ok := randomJDDSwap(rng, g, deg)
			if !ok {
				continue
			}
			seen.add(deg, v, y)
			if deg[v] == deg[y] && deg[u] == deg[x] {
				both++
			}
			want := mapDeltaOfSwap(g, deg, u, v, x, y)
			if !checkSwap(t, paths, want, u, v, x, y) || !checkSwap(t, paths, want, v, u, y, x) {
				t.Fatalf("round=%d deg=[%d %d %d %d]", round, deg[u], deg[v], deg[x], deg[y])
			}
		}
	}
	seen.check(t, 50)
	if both < 50 {
		t.Fatalf("only %d swaps with both orientations available — vacuous", both)
	}
}

// TestTrackerSwapDeltaPanicsOnJDDChange checks that SwapDelta refuses a
// swap that keeps neither deg v == deg y nor deg u == deg x.
func TestTrackerSwapDeltaPanicsOnJDDChange(t *testing.T) {
	// Node 1 has degree 3, node 5 degree 2, nodes 0 and 4 are leaves:
	// (0,1),(5,4) → (0,4),(5,1) moves edges between degree pairs.
	g := build(t, 7, [][2]int{{0, 1}, {1, 2}, {1, 3}, {4, 5}, {5, 6}})
	tr := NewTracker(g, g.DegreeSequence())
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "internal invariant violated") {
			t.Fatalf("SwapDelta on a JDD-changing swap: recovered %q, want an invariant panic", msg)
		}
	}()
	tr.SwapDelta(tr.NewDelta(), 0, 1, 5, 4)
}

// TestTrackerApplySwapMaintainsMirror runs a chain of accepted swaps,
// updating graph and bitsets together, and checks that SwapDelta
// computed from the evolved state still matches the map-keyed reference
// computed from the evolved graph — i.e. ApplySwap keeps the bitsets
// coherent — on every path and at several bitset thresholds.
func TestTrackerApplySwapMaintainsMirror(t *testing.T) {
	for _, threshold := range []int{4, DefaultBitsetThreshold} {
		rng := rand.New(rand.NewSource(int64(threshold)))
		n, m := 24, 60
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		cg := g.Clone()
		paths := append(pathTrackers(t, cg, deg), pathTracker{name: "threshold"})
		paths[3].tr = newTrackerThreshold(cg, deg, threshold)
		paths[3].td = paths[3].tr.NewDelta()
		var seen orientations
		accepted := 0
		for tries := 0; tries < 20000 && accepted < 50; tries++ {
			u, v, x, y, ok := randomJDDSwap(rng, g, deg)
			if !ok {
				continue
			}
			seen.add(deg, v, y)
			if !checkSwap(t, paths, mapDeltaOfSwap(g, deg, u, v, x, y), u, v, x, y) {
				t.Fatalf("threshold=%d: mirror diverged after %d swaps", threshold, accepted)
			}
			for _, c := range []*graph.CSR{g, cg} {
				c.RemoveEdge(u, v)
				c.RemoveEdge(x, y)
				mustAddCSR(t, c, u, y)
				mustAddCSR(t, c, x, v)
			}
			for _, p := range paths {
				p.tr.ApplySwap(u, v, x, y)
			}
			accepted++
		}
		if accepted < 50 {
			t.Fatalf("threshold=%d: only %d swaps accepted", threshold, accepted)
		}
		seen.check(t, 5)
		// Final coherence check: tracked adjacency == graph adjacency.
		for _, p := range paths {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && p.tr.has(u, v) != g.HasEdge(u, v) {
						t.Fatalf("threshold=%d %s: has(%d,%d)=%v graph=%v", threshold, p.name, u, v, p.tr.has(u, v), g.HasEdge(u, v))
					}
				}
			}
		}
	}
}

// TestTrackerDeltaResetAndZero exercises the touched-list bookkeeping:
// counts that cancel to zero keep IsZero true, Reset clears state, and
// Drain leaves the accumulator empty.
func TestTrackerDeltaResetAndZero(t *testing.T) {
	// On C6, (0,1),(3,4) → (0,4),(3,1) splits the cycle into two
	// triangles; (0,1),(3,2) → (0,2),(3,1) rebuilds a C6, every change it
	// touches cancelling at the same degree classes.
	g := build(t, 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	tr := NewTracker(g, g.DegreeSequence())
	td := tr.NewDelta()
	if !td.IsZero() {
		t.Fatal("fresh delta not zero")
	}
	tr.SwapDelta(td, 0, 1, 3, 4)
	if td.IsZero() {
		t.Fatal("delta zero for a swap that closes two triangles")
	}
	tr.SwapDelta(td, 0, 1, 3, 2)
	if len(td.wTouch) == 0 {
		t.Fatal("cancelling swap touched no slot; the check tests nothing")
	}
	if !td.IsZero() {
		t.Fatal("changes that cancel class-wise should leave the delta zero")
	}
	tr.SwapDelta(td, 0, 1, 3, 4)
	td.Reset()
	if !td.IsZero() {
		t.Fatal("Reset did not clear the delta")
	}
	tr.SwapDelta(td, 0, 1, 3, 4)
	if c := drain(td); c.TotalTriangles() != 2 {
		t.Fatalf("drained %d triangles, want 2", c.TotalTriangles())
	}
	if !td.IsZero() {
		t.Fatal("Drain did not leave the delta empty")
	}
	if c2 := drain(td); len(c2.Wedges) != 0 || len(c2.Triangles) != 0 {
		t.Fatal("second Drain produced counts")
	}
}

// mustAddCSR inserts an edge that is known to be absent.
func mustAddCSR(t *testing.T, c *graph.CSR, u, v int) {
	t.Helper()
	if err := c.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerObservedPairSizingStaysDense builds a graph whose degree
// class count is far too high for nc³ accumulator sizing (nc³ >
// denseLimit) but whose observed class-pair structure is sparse, and
// checks the tracker still takes the dense path — then verifies
// SwapDelta on it against the map-keyed reference on every path, so the
// pair-indexed slots are exercised, not just selected.
func TestTrackerObservedPairSizingStaysDense(t *testing.T) {
	// A chain of stars with strictly increasing arm counts: every hub is
	// its own degree class, leaves add one more, so nc ≈ #stars while
	// each class is adjacent to only a handful of classes.
	const stars = 110
	n := 0
	hubs := make([]int, stars)
	type e = [2]int
	var edges []e
	for i := 0; i < stars; i++ {
		hub := n
		hubs[i] = hub
		n++
		for a := 0; a < i+2; a++ {
			edges = append(edges, e{hub, n})
			n++
		}
		if i > 0 {
			edges = append(edges, e{hubs[i-1], hub})
		}
	}
	g := build(t, n, edges)
	deg := g.DegreeSequence()
	paths := pathTrackers(t, g.Clone(), deg)
	tr := paths[0].tr
	if nc := tr.nc; nc*nc*nc <= denseLimit {
		t.Fatalf("test graph too tame: nc=%d, nc³=%d <= denseLimit=%d", nc, nc*nc*nc, denseLimit)
	}
	if tr.npairs*tr.nc > denseLimit {
		t.Fatalf("pair-sized accumulators exceed the limit: npairs=%d nc=%d", tr.npairs, tr.nc)
	}

	// Every hub has its own degree, so the JDD-preserving swaps exchange
	// leaves between hubs: deg v == deg y when the leaves are named
	// second, deg u == deg x when they are named first.
	rng := rand.New(rand.NewSource(3))
	var seen orientations
	checked := 0
	for tries := 0; tries < 400 && checked < 60; tries++ {
		u, v, x, y, ok := randomJDDSwap(rng, g, deg)
		if !ok {
			continue
		}
		seen.add(deg, v, y)
		if !checkSwap(t, paths, mapDeltaOfSwap(g, deg, u, v, x, y), u, v, x, y) {
			t.Fatalf("SwapDelta mismatch on pair-indexed path: swap (%d,%d)(%d,%d)", u, v, x, y)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d swaps checked — vacuous", checked)
	}
	seen.check(t, 5)
}
