package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// writeEdgeListSorted is WriteEdgeList as it was before it walked the
// neighbor windows: a sorted copy of the edge list and one Fprintf per
// edge. It is the reference TestWriteEdgeListMatchesSorted holds the
// writer to.
func writeEdgeListSorted(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.SortedEdges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TestWriteEdgeListMatchesSorted checks the window walk writes the same
// bytes as the sorted reference: on rewired replicas, whose edge lists
// are far from canonical order, on a graph with isolated nodes, and on
// the empty graph.
func TestWriteEdgeListMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := map[string]*CSR{
		"empty":    NewCSR(0),
		"isolated": NewCSR(5),
	}
	withIsolated := NewCSR(12)
	for _, e := range [][2]int{{3, 7}, {7, 1}, {1, 3}, {10, 3}} {
		if err := withIsolated.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cases["edges and isolated nodes"] = withIsolated
	for i, size := range [][2]int{{40, 90}, {300, 1200}, {2000, 6000}} {
		g := randomGraph(rng, size[0], size[1])
		// Rewire it: double-edge swaps and a few remove/add pairs scatter
		// the edge list out of canonical order.
		for done := 0; done < 4*g.M(); {
			a, b := g.EdgeAt(rng.Intn(g.M())), g.EdgeAt(rng.Intn(g.M()))
			if g.SwapEnds(a.U, a.V, b.U, b.V) == nil {
				done++
			}
		}
		for range g.M() / 10 {
			e := g.EdgeAt(rng.Intn(g.M()))
			u, v := rng.Intn(g.N()), rng.Intn(g.N())
			if u != v && !g.HasEdge(u, v) {
				g.RemoveEdge(e.U, e.V)
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		if g.EdgesCanonicallyOrdered() {
			t.Fatalf("replica %d kept canonical edge order; the case tests nothing", i)
		}
		cases[fmt.Sprintf("replica %d", i)] = g
	}
	for name, g := range cases {
		var got, want bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeListSorted(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteEdgeList wrote %d bytes that differ from the sorted reference's %d", name, got.Len(), want.Len())
		}
	}
}
