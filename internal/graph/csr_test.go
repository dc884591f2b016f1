package graph

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// checkMirror verifies every invariant that ties a CSR to its map
// reference: node/edge counts, edge-list order (the RNG-stream contract),
// sorted windows, the edge-index overlay, and HasEdge agreement.
func checkMirror(t *testing.T, c *CSR, g *mapGraph) {
	t.Helper()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("size mismatch: CSR %d/%d vs map %d/%d", c.N(), c.M(), g.N(), g.M())
	}
	for i := 0; i < g.M(); i++ {
		if c.EdgeAt(i) != g.EdgeAt(i) {
			t.Fatalf("edge %d: CSR %v vs map %v", i, c.EdgeAt(i), g.EdgeAt(i))
		}
	}
	for u := 0; u < g.N(); u++ {
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("degree(%d): CSR %d vs map %d", u, c.Degree(u), g.Degree(u))
		}
		w := c.Neighbors(u)
		ew := c.ewindow(u)
		for i, v := range w {
			if i > 0 && w[i-1] >= v {
				t.Fatalf("node %d: window not strictly sorted: %v", u, w)
			}
			if !g.HasEdge(u, int(v)) {
				t.Fatalf("node %d: CSR has neighbor %d, map does not", u, v)
			}
			e := c.EdgeAt(int(ew[i]))
			if (Edge{u, int(v)}.Canon()) != e {
				t.Fatalf("node %d: epos points at %v, want (%d,%d)", u, e, u, v)
			}
		}
		for _, v := range g.Neighbors(u) {
			if !c.HasEdge(u, v) {
				t.Fatalf("node %d: map has neighbor %d, CSR does not", u, v)
			}
		}
	}
}

// TestCSRMirrorsGraph drives an identical random mutation sequence
// through the CSR and the map reference and checks they stay in
// lockstep, including the swap-remove edge index permutation.
func TestCSRMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	g := newMapGraph(n)
	c := NewCSR(n)
	for step := 0; step < 5000; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(3) {
		case 0, 1: // add
			errG := g.AddEdge(u, v)
			errC := c.AddEdge(u, v)
			if (errG == nil) != (errC == nil) {
				t.Fatalf("AddEdge(%d,%d): map err %v, CSR err %v", u, v, errG, errC)
			}
			if errG != nil && errG.Error() != errC.Error() {
				t.Fatalf("AddEdge(%d,%d) error text: %q vs %q", u, v, errG, errC)
			}
		case 2: // remove (sometimes a random existing edge, exercising swaps)
			if g.M() > 0 && rng.Intn(2) == 0 {
				e := g.EdgeAt(rng.Intn(g.M()))
				u, v = e.U, e.V
			}
			okG := g.RemoveEdge(u, v)
			okC := c.RemoveEdge(u, v)
			if okG != okC {
				t.Fatalf("RemoveEdge(%d,%d): map %v, CSR %v", u, v, okG, okC)
			}
		}
		if step%500 == 0 {
			checkMirror(t, c, g)
		}
	}
	checkMirror(t, c, g)

	if ContentHash(c, nil) != contentHashRef(g, nil) {
		t.Fatalf("ContentHash differs from the reference definition")
	}

	// Clone and CanonicalClone preserve the respective contracts.
	cl := c.Clone()
	checkMirror(t, cl, g)
	cc := c.CanonicalClone()
	if !cc.EdgesCanonicallyOrdered() {
		t.Fatalf("CanonicalClone not canonically ordered")
	}
	if !cc.Equal(c) {
		t.Fatalf("CanonicalClone changed the edge set")
	}
	checkMirror(t, cc, mapFromEdges(n, g.sortedEdges()))
}

// TestCSRRelocation grows one hub far past every window's initial
// capacity so insertion exercises relocation and compaction.
func TestCSRRelocation(t *testing.T) {
	const n = 3000
	c := NewCSR(n)
	g := newMapGraph(n)
	for v := 1; v < n; v++ {
		if err := c.AddEdge(0, v); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		if err := g.AddEdge(0, v); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		// Sprinkle some non-hub edges to mix window sizes.
		if v%7 == 0 && v+1 < n {
			_ = c.AddEdge(v, v+1)
			_ = g.AddEdge(v, v+1)
		}
	}
	checkMirror(t, c, g)
	// Tear half of it back down through the overlay.
	for v := 1; v < n; v += 2 {
		if !c.RemoveEdge(v, 0) {
			t.Fatalf("RemoveEdge(0,%d) missing", v)
		}
		g.RemoveEdge(v, 0)
	}
	checkMirror(t, c, g)
}

// TestCSRBinaryRoundTrip checks WriteBinary against the map reference's
// encoder byte for byte and ContentHash against its definition, and that
// decoding reproduces the graph in sorted canonical edge order.
func TestCSRBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := newMapGraph(200)
	for i := 0; i < 900; i++ {
		_ = g.AddEdge(rng.Intn(200), rng.Intn(200))
	}
	labels := make([]int, 200)
	for i := range labels {
		labels[i] = 1000 + i*3
	}
	c, err := NewCSRFromEdges(g.N(), g.edges)
	if err != nil {
		t.Fatal(err)
	}

	var bg, bc bytes.Buffer
	if err := writeBinaryRef(&bg, g, labels); err != nil {
		t.Fatalf("writeBinaryRef: %v", err)
	}
	if err := WriteBinary(&bc, c, labels); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if !bytes.Equal(bg.Bytes(), bc.Bytes()) {
		t.Fatalf("WriteBinary and the map reference encoder disagree on the wire bytes")
	}
	if ContentHash(c, labels) != contentHashRef(g, labels) {
		t.Fatalf("ContentHash differs from the reference definition")
	}

	dec, gotLabels, err := ReadBinary(bytes.NewReader(bc.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !dec.Equal(c) {
		t.Fatalf("decoded CSR differs from source")
	}
	if !dec.EdgesCanonicallyOrdered() {
		t.Fatalf("decoded CSR edge list not canonical")
	}
	for i, l := range gotLabels {
		if l != labels[i] {
			t.Fatalf("label %d: got %d want %d", i, l, labels[i])
		}
	}
	checkMirror(t, dec, mapFromEdges(g.N(), g.sortedEdges()))
}

// sameState reports whether two CSRs hold the same edge list order (the
// EdgeAt sequence), the same neighbor windows and the same edge-index
// overlay. Window placement in the arena may differ.
func sameState(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.M() != want.M() || got.N() != want.N() {
		t.Fatalf("size %d/%d, want %d/%d", got.N(), got.M(), want.N(), want.M())
	}
	for i := 0; i < want.M(); i++ {
		if got.EdgeAt(i) != want.EdgeAt(i) {
			t.Fatalf("EdgeAt(%d) = %v, want %v", i, got.EdgeAt(i), want.EdgeAt(i))
		}
	}
	for u := 0; u < want.N(); u++ {
		gw, ww := got.Neighbors(u), want.Neighbors(u)
		ge, we := got.ewindow(u), want.ewindow(u)
		if len(gw) != len(ww) {
			t.Fatalf("node %d: window %v, want %v", u, gw, ww)
		}
		for i := range ww {
			if gw[i] != ww[i] || ge[i] != we[i] {
				t.Fatalf("node %d: window %v/%v, want %v/%v", u, gw, ge, ww, we)
			}
		}
	}
}

// TestRequeueEdgesMatchesApplyRevert checks that RequeueEdges leaves a
// graph exactly as applying a rewiring move and reverting it would: for
// a depth-0 move (remove one edge, add another) and for a double-edge
// swap (depth >= 1). Each trial continues from the previous result, and
// Clone's slack-free windows make the depth-0 insert relocate.
func TestRequeueEdgesMatchesApplyRevert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 30
	c := NewCSR(n)
	for c.M() < 70 {
		c.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	mustAdd := func(g *CSR, u, v int) {
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	swaps, singles := 0, 0
	for trial := 0; trial < 2000; trial++ {
		e1 := c.EdgeAt(rng.Intn(c.M()))
		ref, got := c.Clone(), c.Clone()
		if trial%2 == 0 {
			x, y := rng.Intn(n), rng.Intn(n)
			if x == y || c.HasEdge(x, y) {
				continue
			}
			ref.RemoveEdge(e1.U, e1.V)
			mustAdd(ref, x, y)
			ref.RemoveEdge(x, y)
			mustAdd(ref, e1.U, e1.V)
			got.RequeueEdges(e1)
			singles++
		} else {
			e2 := c.EdgeAt(rng.Intn(c.M()))
			u, v, x, y := e1.U, e1.V, e2.U, e2.V
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			if u == x || u == y || v == x || v == y || c.HasEdge(u, y) || c.HasEdge(x, v) {
				continue
			}
			ref.RemoveEdge(u, v)
			ref.RemoveEdge(x, y)
			mustAdd(ref, u, y)
			mustAdd(ref, x, v)
			ref.RemoveEdge(x, v)
			ref.RemoveEdge(u, y)
			mustAdd(ref, x, y)
			mustAdd(ref, u, v)
			got.RequeueEdges(Edge{u, v}, Edge{x, y})
			swaps++
		}
		sameState(t, got, ref)
		c = got
	}
	if swaps < 100 || singles < 100 {
		t.Fatalf("too few valid moves: %d swaps, %d single-edge moves", swaps, singles)
	}
}

// TestCSRNodeCountBound checks that the constructors refuse node counts
// outside the int32 id width before allocating anything, and that
// AddNode's guard (checkNodeCount on the grown count) admits exactly
// math.MaxInt32 nodes.
func TestCSRNodeCountBound(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	counts := []int{-1}
	if over := int64(math.MaxInt32) + 1; over <= math.MaxInt {
		counts = append(counts, int(over), math.MaxInt)
	}
	for _, n := range counts {
		mustPanic("NewCSR", func() { NewCSR(n) })
		mustPanic("csrFromCanonicalEdges", func() { csrFromCanonicalEdges(n, nil) })
		mustPanic("newCSRPreservingOrder", func() { newCSRPreservingOrder(n, nil) })
		mustPanic("checkNodeCount", func() { checkNodeCount(n) })
	}
	checkNodeCount(math.MaxInt32)
	c := NewCSR(2)
	if id := c.AddNode(); id != 2 || c.N() != 3 {
		t.Fatalf("AddNode = %d, N = %d; want 2, 3", id, c.N())
	}
}
