package generate

import (
	"bytes"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// profileBytes encodes a profile to its canonical binary form so two
// profiles can be compared byte for byte.
func profileBytes(t *testing.T, p *dk.Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := dk.WriteProfileBinary(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCSRMatchesMapReference is the old-vs-new pinning suite of the
// CSR-first refactor: on every differential graph family it checks that
// the working CSR and the retained map-adjacency Graph agree on content
// hash, wire bytes, extracted profiles at all four depths, and the
// wedge/triangle census — and that a rewiring run on the CSR, replayed
// move-for-move on the map reference, leaves the two representations
// with identical edge-index streams (the RNG-stream contract) and
// byte-identical encodings.
func TestCSRMatchesMapReference(t *testing.T) {
	for _, fam := range diffFamilies {
		for _, seed := range []int64{7, 23} {
			c := fam.build(newRng(seed))
			ref := c.Graph() // retained map-adjacency reference

			// Static analysis surfaces agree.
			if graph.ContentHash(c, nil) != graph.ContentHash(ref, nil) {
				t.Fatalf("%s: content hash differs across representations", fam.name)
			}
			var bc, bg bytes.Buffer
			if err := graph.WriteBinaryCSR(&bc, c, nil); err != nil {
				t.Fatal(err)
			}
			if err := graph.WriteBinary(&bg, ref, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bc.Bytes(), bg.Bytes()) {
				t.Fatalf("%s: binary encodings differ across representations", fam.name)
			}
			for d := 0; d <= 3; d++ {
				pc, err := dk.Extract(c, d)
				if err != nil {
					t.Fatal(err)
				}
				pg, err := dk.Extract(ref.Static(), d)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(profileBytes(t, pc), profileBytes(t, pg)) {
					t.Fatalf("%s: depth-%d profiles differ across representations", fam.name, d)
				}
			}
			if !subgraphs.Count(c).Equal(subgraphs.Count(ref.Static())) {
				t.Fatalf("%s: censuses differ across representations", fam.name)
			}

			// Dynamic surface: rewire the CSR, replay the accepted-move log
			// on the map reference with the same edge operations, and require
			// the two mutable representations to stay in lockstep — including
			// the swap-remove edge-index permutation that the uniform edge
			// draw (EdgeAt ∘ Intn) depends on. Objective-free depth 2 swaps
			// in place instead, each edge keeping its slot, so its stream is
			// checked against that slot model; a zero-score objective keeps
			// a second depth-2 run on the remove-and-add path.
			for _, run := range []struct {
				depth int
				obj   Objective
			}{{1, nil}, {2, nil}, {2, zeroObjective{}}, {3, nil}} {
				depth := run.depth
				work := c.Clone()
				r, err := NewRewirer(work, depth, newRng(seed*31))
				if err != nil {
					t.Fatalf("%s/d%d: %v", fam.name, depth, err)
				}
				r.RecordMoves = true
				r.Obj = run.obj
				for att := 0; att < 40000 && r.Stats.Accepted < 100; att++ {
					if _, err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				mirror := ref.Clone()
				slots := c.Edges()
				for _, m := range r.AcceptedMoves() {
					for i, e := range slots {
						switch e {
						case graph.Edge{U: m.U, V: m.V}.Canon():
							slots[i] = graph.Edge{U: m.U, V: m.Y}.Canon()
						case graph.Edge{U: m.X, V: m.Y}.Canon():
							slots[i] = graph.Edge{U: m.X, V: m.V}.Canon()
						}
					}
					mirror.RemoveEdge(m.U, m.V)
					mirror.RemoveEdge(m.X, m.Y)
					if err := mirror.AddEdge(m.U, m.Y); err != nil {
						t.Fatal(err)
					}
					if err := mirror.AddEdge(m.X, m.V); err != nil {
						t.Fatal(err)
					}
				}
				if work.M() != mirror.M() {
					t.Fatalf("%s/d%d: edge counts diverged", fam.name, depth)
				}
				want := mirror.EdgeAt
				if depth == 2 && run.obj == nil {
					want = func(i int) graph.Edge { return slots[i] }
				}
				for i := 0; i < work.M(); i++ {
					if work.EdgeAt(i) != want(i) {
						t.Fatalf("%s/d%d: edge stream diverged at index %d: %v vs %v",
							fam.name, depth, i, work.EdgeAt(i), want(i))
					}
				}
				if graph.ContentHash(work, nil) != graph.ContentHash(mirror, nil) {
					t.Fatalf("%s/d%d: rewired content hash differs", fam.name, depth)
				}
				pw, err := dk.Extract(work, depth)
				if err != nil {
					t.Fatal(err)
				}
				pm, err := dk.Extract(mirror.Static(), depth)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(profileBytes(t, pw), profileBytes(t, pm)) {
					t.Fatalf("%s/d%d: rewired profiles differ", fam.name, depth)
				}
			}
		}
	}
}
