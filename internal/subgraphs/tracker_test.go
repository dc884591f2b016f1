package subgraphs

import (
	"math/rand"
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

func drain(t *Tracker, td *TrackerDelta) *Census {
	c := NewCensus()
	td.Drain(c)
	return c
}

// TestTrackerSwapDeltaMatchesDelta pits the read-only dense SwapDelta
// against the map-keyed apply-and-revert reference on random graphs and
// random swaps, across the merge path (default threshold), the bitset
// path (threshold 1 puts every node behind a bitset) and the packed-map
// fallback (denseLimit forced to 0).
func TestTrackerSwapDeltaMatchesDelta(t *testing.T) {
	oldLimit := denseLimit
	defer func() { denseLimit = oldLimit }()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(24)
		m := 4 + rng.Intn(n*(n-1)/2-3)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()

		cg := g.Clone()
		denseLimit = oldLimit
		trMerge := NewTracker(cg, deg)
		trBits := NewTrackerThreshold(cg, deg, 1)
		denseLimit = 0
		trMap := NewTracker(cg, deg)
		denseLimit = oldLimit
		if trMap.dense || !trMerge.dense {
			t.Fatalf("dense-path selection broken: map=%v merge=%v", trMap.dense, trMerge.dense)
		}
		dMerge, dBits, dMap := trMerge.NewDelta(), trBits.NewDelta(), trMap.NewDelta()

		for tries := 0; tries < 30; tries++ {
			u, v, x, y, ok := randomValidSwap(rng, g)
			if !ok {
				continue
			}
			want := mapDeltaOfSwap(g, deg, u, v, x, y)
			trMerge.SwapDelta(dMerge, u, v, x, y)
			trBits.SwapDelta(dBits, u, v, x, y)
			trMap.SwapDelta(dMap, u, v, x, y)
			if !drain(trMerge, dMerge).Equal(want) {
				t.Logf("merge path mismatch: seed=%d swap=(%d,%d)(%d,%d)", seed, u, v, x, y)
				return false
			}
			if !drain(trBits, dBits).Equal(want) {
				t.Logf("bitset path mismatch: seed=%d swap=(%d,%d)(%d,%d)", seed, u, v, x, y)
				return false
			}
			if !drain(trMap, dMap).Equal(want) {
				t.Logf("map fallback mismatch: seed=%d swap=(%d,%d)(%d,%d)", seed, u, v, x, y)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTrackerSwapDeltaJDDMatchesSwapDelta pins the specialized
// symmetric-difference walk against the generic four-op SwapDelta on
// random JDD-matched swaps, in both 2K-preserving orientations
// (deg v == deg y directly; deg u == deg x via the flipped call), and
// across the merge, all-bitset, and packed-map fallback paths.
func TestTrackerSwapDeltaJDDMatchesSwapDelta(t *testing.T) {
	oldLimit := denseLimit
	defer func() { denseLimit = oldLimit }()

	rng := rand.New(rand.NewSource(23))
	matched := 0
	for round := 0; round < 200; round++ {
		n := 6 + rng.Intn(24)
		m := 5 + rng.Intn(n*(n-1)/2-4)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()

		cg := g.Clone()
		denseLimit = oldLimit
		trMerge := NewTracker(cg, deg)
		trBits := NewTrackerThreshold(cg, deg, 1)
		denseLimit = 0
		trMap := NewTracker(cg, deg)
		denseLimit = oldLimit
		trackers := []*Tracker{trMerge, trBits, trMap}
		generic := trMerge.NewDelta()

		for tries := 0; tries < 40; tries++ {
			u, v, x, y, ok := randomValidSwap(rng, g)
			if !ok {
				continue
			}
			if deg[v] != deg[y] && deg[u] != deg[x] {
				continue // not a JDD-preserving swap; SwapDeltaJDD does not apply
			}
			matched++
			trMerge.SwapDelta(generic, u, v, x, y)
			want := drain(trMerge, generic)
			for pi, tr := range trackers {
				td := tr.NewDelta()
				if deg[v] == deg[y] {
					tr.SwapDeltaJDD(td, u, v, x, y)
				} else {
					tr.SwapDeltaJDD(td, v, u, y, x)
				}
				if !drain(tr, td).Equal(want) {
					t.Fatalf("path=%d round=%d: SwapDeltaJDD != SwapDelta for swap (%d,%d)(%d,%d) deg=[%d %d %d %d]",
						pi, round, u, v, x, y, deg[u], deg[v], deg[x], deg[y])
				}
			}
		}
	}
	if matched < 100 {
		t.Fatalf("only %d JDD-matched swaps exercised — vacuous", matched)
	}
}

// TestTrackerSwapDeltaMatchesComposedOps verifies the virtual-state
// shortcut of SwapDelta (exclusion parameters instead of mirror
// mutation) against the literal composition: four single-edge deltas
// telescoped across actual mirror mutations, then reverted.
func TestTrackerSwapDeltaMatchesComposedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		n := 6 + rng.Intn(20)
		m := 5 + rng.Intn(n*(n-1)/2-4)
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		cg := g.Clone()
		tr := NewTracker(cg, deg)
		td := tr.NewDelta()
		for tries := 0; tries < 20; tries++ {
			u, v, x, y, ok := randomValidSwap(rng, g)
			if !ok {
				continue
			}
			tr.SwapDelta(td, u, v, x, y)
			got := drain(tr, td)

			td.Reset()
			tr.RemoveEdgeDelta(td, u, v)
			cg.RemoveEdge(u, v)
			tr.Remove(u, v)
			tr.RemoveEdgeDelta(td, x, y)
			cg.RemoveEdge(x, y)
			tr.Remove(x, y)
			tr.AddEdgeDelta(td, u, y)
			mustAddCSR(t, cg, u, y)
			tr.Add(u, y)
			tr.AddEdgeDelta(td, x, v)
			mustAddCSR(t, cg, x, v)
			tr.Add(x, v)
			want := drain(tr, td)
			// Restore the graph and bitsets for the next iteration.
			cg.RemoveEdge(u, y)
			cg.RemoveEdge(x, v)
			mustAddCSR(t, cg, u, v)
			mustAddCSR(t, cg, x, y)
			tr.ApplySwap(u, y, x, v)

			if !got.Equal(want) {
				t.Fatalf("SwapDelta != composed ops: round=%d swap=(%d,%d)(%d,%d)", round, u, v, x, y)
			}
		}
	}
}

// TestTrackerApplySwapMaintainsMirror runs a chain of accepted swaps,
// updating graph and mirror together, and checks that SwapDelta computed
// from the evolved mirror still matches the map-keyed reference computed
// from the evolved graph — i.e. Add/Remove/ApplySwap keep the sorted
// lists and bitsets coherent.
func TestTrackerApplySwapMaintainsMirror(t *testing.T) {
	for _, threshold := range []int{1, 4, DefaultBitsetThreshold} {
		rng := rand.New(rand.NewSource(int64(threshold)))
		n, m := 24, 60
		g := randomGraph(rng, n, m)
		deg := g.DegreeSequence()
		cg := g.Clone()
		tr := NewTrackerThreshold(cg, deg, threshold)
		td := tr.NewDelta()
		accepted := 0
		for tries := 0; tries < 500 && accepted < 50; tries++ {
			u, v, x, y, ok := randomValidSwap(rng, g)
			if !ok {
				continue
			}
			want := mapDeltaOfSwap(g, deg, u, v, x, y)
			tr.SwapDelta(td, u, v, x, y)
			if !drain(tr, td).Equal(want) {
				t.Fatalf("threshold=%d: mirror diverged after %d swaps", threshold, accepted)
			}
			g.RemoveEdge(u, v)
			g.RemoveEdge(x, y)
			if err := g.AddEdge(u, y); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(x, v); err != nil {
				t.Fatal(err)
			}
			cg.RemoveEdge(u, v)
			cg.RemoveEdge(x, y)
			mustAddCSR(t, cg, u, y)
			mustAddCSR(t, cg, x, v)
			tr.ApplySwap(u, v, x, y)
			accepted++
		}
		if accepted < 50 {
			t.Fatalf("threshold=%d: only %d swaps accepted", threshold, accepted)
		}
		// Final coherence check: mirror adjacency == graph adjacency.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && tr.has(u, v) != g.HasEdge(u, v) {
					t.Fatalf("threshold=%d: mirror(%d,%d)=%v graph=%v", threshold, u, v, tr.has(u, v), g.HasEdge(u, v))
				}
			}
		}
	}
}

// TestTrackerDeltaResetAndZero exercises the touched-list bookkeeping:
// counts that cancel to zero keep IsZero true, Reset clears state, and
// Drain leaves the accumulator empty.
func TestTrackerDeltaResetAndZero(t *testing.T) {
	g := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	deg := g.DegreeSequence()
	tr := NewTracker(g.Clone(), deg)
	td := tr.NewDelta()
	if !td.IsZero() {
		t.Fatal("fresh delta not zero")
	}
	tr.RemoveEdgeDelta(td, 0, 1)
	if td.IsZero() {
		t.Fatal("delta zero after removing an edge of C5")
	}
	tr.AddEdgeDelta(td, 0, 1)
	if !td.IsZero() {
		t.Fatal("remove+add of the same edge should cancel exactly")
	}
	tr.RemoveEdgeDelta(td, 0, 1)
	td.Reset()
	if !td.IsZero() {
		t.Fatal("Reset did not clear the delta")
	}
	tr.RemoveEdgeDelta(td, 0, 1)
	c := NewCensus()
	td.Drain(c)
	if !td.IsZero() {
		t.Fatal("Drain did not leave the delta empty")
	}
	c2 := NewCensus()
	td.Drain(c2)
	if len(c2.Wedges) != 0 || len(c2.Triangles) != 0 {
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
// class count is far too high for the old nc³ accumulator sizing
// (nc³ > denseLimit) but whose observed class-pair structure is sparse,
// and checks the tracker still takes the dense path — then verifies
// SwapDelta correctness on it against the map-keyed reference, so the
// pair-indexed slots (and the overflow map for pairs a general swap
// introduces) are exercised, not just selected.
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
	cg := g.Clone()
	tr := NewTracker(cg, deg)
	if nc := tr.nc; nc*nc*nc <= denseLimit {
		t.Fatalf("test graph too tame: nc=%d, nc³=%d <= denseLimit=%d", nc, nc*nc*nc, denseLimit)
	}
	if !tr.dense {
		t.Fatalf("tracker fell back to packed maps: nc=%d npairs=%d limit=%d",
			tr.nc, tr.npairs, denseLimit)
	}
	if tr.npairs*tr.nc > denseLimit {
		t.Fatalf("pair-sized accumulators exceed the limit: npairs=%d nc=%d", tr.npairs, tr.nc)
	}

	rng := rand.New(rand.NewSource(3))
	td := tr.NewDelta()
	checked := 0
	for tries := 0; tries < 400 && checked < 60; tries++ {
		u, v, x, y, ok := randomValidSwap(rng, g)
		if !ok {
			continue
		}
		want := mapDeltaOfSwap(g, deg, u, v, x, y)
		tr.SwapDelta(td, u, v, x, y)
		if !drain(tr, td).Equal(want) {
			t.Fatalf("SwapDelta mismatch on pair-indexed path: swap (%d,%d)(%d,%d)", u, v, x, y)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d swaps checked — vacuous", checked)
	}
}
