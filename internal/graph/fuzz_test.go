package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzLimits keeps fuzz inputs cheap: the properties under test are
// "never panic, never over-allocate, reject garbage cleanly", not
// capacity.
var fuzzLimits = ReadLimits{MaxBytes: 1 << 16, MaxNodes: 1 << 10, MaxEdges: 1 << 12}

// FuzzReadEdgeList hardens the text edge-list parser against malformed
// input and pins it against the map-building parse it replaced
// (readEdgeListRef): arbitrary bytes must be accepted or rejected exactly
// when the reference does, never panic, and never allocate beyond the
// input-proportional bound. An accepted graph has the reference's labels
// and edge set, its edge list is in sorted canonical order, and it
// round-trips through the binary codec.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n\n  7   9 \n9 7000000\n")
	f.Add("0 1 extra fields ignored\n")
	f.Add("a b\n")
	f.Add("1\n")
	f.Add("-1 2\n")
	f.Add("0 0\n")
	f.Add("0 1\n0 1\n")
	f.Add("999999999999999999999 1\n")
	f.Add(strings.Repeat("0 1\n", 3))
	f.Fuzz(func(t *testing.T, input string) {
		g, labels, err := ReadEdgeListLimit(strings.NewReader(input), fuzzLimits)
		ref, refLabels, refErr := readEdgeListRef(strings.NewReader(input), fuzzLimits)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadEdgeListLimit err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("nil graph with nil error")
		}
		if !slices.Equal(labels, refLabels) {
			t.Fatalf("labels %v, reference %v", labels, refLabels)
		}
		checkMirror(t, g, mapFromEdges(ref.N(), ref.sortedEdges()))
		if !g.EdgesCanonicallyOrdered() {
			t.Fatal("parsed edge list not in sorted canonical order")
		}
		// A successfully parsed graph must survive the binary round trip
		// exactly, labels included.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g, labels); err != nil {
			t.Fatalf("binary encode of parsed graph: %v", err)
		}
		got, gotLabels, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("binary decode of own encoding: %v", err)
		}
		sameState(t, got, g)
		if !slices.Equal(gotLabels, labels) {
			t.Fatal("binary round trip changed the labels")
		}
		// Content addresses are a pure function of the edge set, so the
		// round trip preserves them.
		if ContentHash(got, gotLabels) != contentHashRef(ref, refLabels) {
			t.Fatal("content hash differs from the reference definition")
		}
	})
}

// FuzzSwapEnds checks the in-place double-edge swap on fuzzed graphs.
// Each step proposes a random swap (u,v),(x,y) → (u,y),(x,v); SwapEnds
// must apply exactly the valid ones, rewriting only the two swapped
// edges' slots, and leave the graph untouched otherwise, out-of-range
// nodes included. Afterwards the
// degrees are unchanged, every window is sorted, the edge-index overlay
// agrees with the edge list, the adjacency equals a NewCSRFromEdges
// rebuild of Edges() and a RebuildEdges rebuild of the slot-ordered
// edge list, and RemoveEdge can delete every edge.
func FuzzSwapEnds(f *testing.F) {
	f.Add(int64(1), uint8(60), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 4, 5, 5, 6})
	f.Add(int64(42), uint8(40), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 6, 7})
	f.Add(int64(-7), uint8(255), []byte{5, 9, 1, 4, 4, 9, 2, 2, 7, 7, 0, 1, 3, 8, 10, 11, 12, 3})
	f.Add(int64(3), uint8(10), []byte{0, 1})

	f.Fuzz(func(t *testing.T, seed int64, steps uint8, data []byte) {
		n := 4 + len(data)%13
		c := NewCSR(n)
		for i := 0; i+1 < len(data); i += 2 {
			c.AddEdge(int(data[i])%n, int(data[i+1])%n) //nolint:errcheck // self-loops and duplicates are skipped
		}
		if c.M() < 2 {
			return
		}
		deg := c.DegreeSequence()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(steps); i++ {
			i1, i2 := rng.Intn(c.M()), rng.Intn(c.M())
			e1, e2 := c.EdgeAt(i1), c.EdgeAt(i2)
			u, v, x, y := e1.U, e1.V, e2.U, e2.V
			if rng.Intn(2) == 0 {
				u, v = v, u
			}
			if rng.Intn(2) == 0 {
				x, y = y, x
			}
			valid := u != x && u != y && v != x && v != y && !c.HasEdge(u, y) && !c.HasEdge(x, v)
			before := c.Edges()
			if c.SwapEnds(u, v, x, n) == nil {
				t.Fatalf("step %d: SwapEnds accepted out-of-range node %d", i, n)
			}
			err := c.SwapEnds(u, v, x, y)
			if valid != (err == nil) {
				t.Fatalf("step %d: swap (%d,%d),(%d,%d) valid=%v but SwapEnds returned %v", i, u, v, x, y, valid, err)
			}
			want := before
			if valid {
				want[i1], want[i2] = Edge{u, y}.Canon(), Edge{x, v}.Canon()
			}
			for j, e := range want {
				if c.EdgeAt(j) != e {
					t.Fatalf("step %d: EdgeAt(%d) = %v, want %v", i, j, c.EdgeAt(j), e)
				}
			}
		}
		for u, d := range deg {
			if c.Degree(u) != d {
				t.Fatalf("degree of node %d changed %d -> %d", u, d, c.Degree(u))
			}
		}
		checkMirror(t, c, mapFromEdges(n, c.Edges()))
		rebuild, err := NewCSRFromEdges(n, c.Edges())
		if err != nil {
			t.Fatalf("rebuild of swapped edge list: %v", err)
		}
		sameState(t, c, rebuild)
		inPlace := NewCSR(n)
		inPlace.RebuildEdges(endsOf(c))
		sameState(t, inPlace, c)
		for _, e := range c.Edges() {
			if !c.RemoveEdge(e.U, e.V) {
				t.Fatalf("RemoveEdge(%d,%d) found no edge", e.U, e.V)
			}
		}
		if c.M() != 0 || c.MaxDegree() != 0 {
			t.Fatalf("%d edges and max degree %d left after removing every edge", c.M(), c.MaxDegree())
		}
	})
}
