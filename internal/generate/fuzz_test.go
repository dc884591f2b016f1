package generate

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// jddMultiset returns the joint degree distribution of g as a sorted
// list of canonical (min-degree, max-degree) pairs, one per edge —
// a comparable fingerprint of the paper's 2K-distribution.
func jddMultiset(g *graph.CSR) [][2]int {
	deg := g.DegreeSequence()
	out := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		a, b := deg[e.U], deg[e.V]
		if a > b {
			a, b = b, a
		}
		out = append(out, [2]int{a, b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// FuzzRewireMoves fuzzes the rewiring engine over the (seed, depth,
// graph-bytes) space: ANY input graph must either be rejected cleanly by
// NewRewirer or survive a run of Steps with every dK invariant of its
// depth intact after each accepted move — degree sequence (d ≥ 1), JDD
// multiset (d ≥ 2), full census recount (d = 3) — with the stats
// invariant Attempts == Accepted + Rejected.Total() holding throughout,
// and the engine must never panic. Complements the differential suite
// (structured families) with adversarial topologies.
func FuzzRewireMoves(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(60), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2})
	f.Add(int64(42), uint8(2), uint8(40), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2})
	f.Add(int64(-7), uint8(1), uint8(30), []byte{5, 9, 1, 4, 4, 9, 2, 2, 7, 7, 0, 1, 3, 8})
	f.Add(int64(1<<60), uint8(0), uint8(20), []byte{1, 0, 2, 0, 3})
	f.Add(int64(9), uint8(3), uint8(50), []byte{})

	f.Fuzz(func(t *testing.T, seed int64, depth, steps uint8, data []byte) {
		d := int(depth % 4)
		n := 4 + len(data)%13
		g := graph.NewCSR(n)
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v) //nolint:errcheck // duplicates are the fuzzer probing the parser, not errors
			}
		}
		r, err := NewRewirer(g, d, rand.New(rand.NewSource(seed)))
		if err != nil {
			if g.M() >= 2 {
				t.Fatalf("NewRewirer rejected a %d-edge graph at depth %d: %v", g.M(), d, err)
			}
			return // too few edges must error, not panic
		}
		wantDeg := append([]int(nil), g.DegreeSequence()...)
		wantJDD := jddMultiset(g)
		wantCensus := subgraphs.Count(g)
		for i := 0; i < int(steps%96)+1; i++ {
			accepted, err := r.Step()
			if err != nil {
				t.Fatalf("Step %d: %v", i, err)
			}
			if got, want := r.Stats.Attempts, r.Stats.Accepted+r.Stats.Rejected.Total(); got != want {
				t.Fatalf("step %d: attempts invariant: %d != accepted %d + rejected %d",
					i, got, r.Stats.Accepted, r.Stats.Rejected.Total())
			}
			if !accepted {
				continue
			}
			if d >= 1 {
				for u, want := range wantDeg {
					if g.Degree(u) != want {
						t.Fatalf("step %d: degree of node %d changed %d -> %d", i, u, want, g.Degree(u))
					}
				}
			}
			if d >= 2 {
				got := jddMultiset(g)
				for j := range got {
					if got[j] != wantJDD[j] {
						t.Fatalf("step %d: JDD multiset changed at entry %d: %v -> %v", i, j, wantJDD[j], got[j])
					}
				}
			}
			if d == 3 {
				if fresh := subgraphs.Count(g); !fresh.Equal(wantCensus) {
					t.Fatalf("step %d: depth-3 move changed the wedge/triangle census", i)
				}
			}
		}
	})
}
