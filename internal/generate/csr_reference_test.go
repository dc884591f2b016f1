package generate

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
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

// TestCSRMatchesMapReference pins the rewired CSR's edge list against
// the map-adjacency semantics it inherited. On every differential graph
// family a rewiring run on the CSR is replayed move for move on a plain
// edge-slot list: removing an edge moves the last slot into the freed
// one and adding an edge appends, as the map graph did. The CSR must
// leave the same edge-index stream (the RNG-stream contract the uniform
// edge draw EdgeAt ∘ Intn depends on), and a CSR rebuilt from the slots
// must have the same content hash and profile. Objective-free depths 2
// and 3 swap in place instead, each edge keeping its slot, so their
// streams are checked against that slot model; a zero-score objective
// keeps a second depth-2 run on the remove-and-add path.
func TestCSRMatchesMapReference(t *testing.T) {
	for _, fam := range diffFamilies {
		for _, seed := range []int64{7, 23} {
			c := fam.build(newRng(seed))
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
				r.sync() // scored Steps leave EdgeAt order to the write-back
				slots := c.Edges()
				inPlace := depth >= 2 && run.obj == nil
				remove := func(e graph.Edge) {
					i := slices.Index(slots, e.Canon())
					if i < 0 {
						t.Fatalf("%s/d%d: replay removes missing edge %v", fam.name, depth, e)
					}
					slots[i] = slots[len(slots)-1]
					slots = slots[:len(slots)-1]
				}
				for _, m := range r.AcceptedMoves() {
					uv, xy := graph.Edge{U: m.U, V: m.V}.Canon(), graph.Edge{U: m.X, V: m.Y}.Canon()
					uy, xv := graph.Edge{U: m.U, V: m.Y}.Canon(), graph.Edge{U: m.X, V: m.V}.Canon()
					if inPlace {
						slots[slices.Index(slots, uv)] = uy
						slots[slices.Index(slots, xy)] = xv
						continue
					}
					remove(uv)
					remove(xy)
					slots = append(slots, uy, xv)
				}
				if work.M() != len(slots) {
					t.Fatalf("%s/d%d: edge counts diverged", fam.name, depth)
				}
				for i, e := range slots {
					if work.EdgeAt(i) != e {
						t.Fatalf("%s/d%d: edge stream diverged at index %d: %v vs %v",
							fam.name, depth, i, work.EdgeAt(i), e)
					}
				}
				ref, err := graph.NewCSRFromEdges(c.N(), slots)
				if err != nil {
					t.Fatalf("%s/d%d: replayed slots: %v", fam.name, depth, err)
				}
				if graph.ContentHash(work, nil) != graph.ContentHash(ref, nil) {
					t.Fatalf("%s/d%d: rewired content hash differs", fam.name, depth)
				}
				pw, err := dk.Extract(work, depth)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := dk.Extract(ref, depth)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(profileBytes(t, pw), profileBytes(t, pr)) {
					t.Fatalf("%s/d%d: rewired profiles differ", fam.name, depth)
				}
			}
		}
	}
}
