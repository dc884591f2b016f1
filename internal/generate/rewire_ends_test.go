package generate

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/graph"
)

// zeroObjective scores every move 0. Setting it on a Rewirer changes no
// acceptance decision, but keeps a depth-2 run on propose instead of the
// objective-free end-index proposer.
type zeroObjective struct{}

func (zeroObjective) Init(*graph.CSR) error { return nil }
func (zeroObjective) Score(Move) float64    { return 0 }
func (zeroObjective) Commit(Move)           {}

// edgeMask encodes the edge set of a graph on n ≤ 8 nodes as a bitset,
// bit u·n+v for each edge u < v.
func edgeMask(n int, edges []graph.Edge) uint64 {
	var s uint64
	for _, e := range edges {
		e = e.Canon()
		s |= 1 << (e.U*n + e.V)
	}
	return s
}

// realizations2K enumerates, by breadth-first search over every valid 2K
// swap, the edge sets reachable from g's: the state space of depth-2
// randomizing rewiring started at g. It returns each state's index.
func realizations2K(g *graph.CSR) map[uint64]int {
	n, deg := g.N(), g.DegreeSequence()
	start := edgeMask(n, g.Edges())
	bit := func(a, b int) uint64 {
		if a > b {
			a, b = b, a
		}
		return 1 << (a*n + b)
	}
	index := map[uint64]int{start: 0}
	queue := []uint64{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		var ends [][2]int // both orientations of every edge
		for m := s; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			ends = append(ends, [2]int{b / n, b % n}, [2]int{b % n, b / n})
		}
		for _, e1 := range ends {
			for _, e2 := range ends {
				u, v, x, y := e1[0], e1[1], e2[0], e2[1]
				if u == x || u == y || v == x || v == y {
					continue
				}
				if deg[v] != deg[y] && deg[u] != deg[x] {
					continue
				}
				if s&(bit(u, y)|bit(x, v)) != 0 {
					continue
				}
				t := s&^(bit(u, v)|bit(x, y)) | bit(u, y) | bit(x, v)
				if _, ok := index[t]; !ok {
					index[t] = len(index)
					queue = append(queue, t)
				}
			}
		}
	}
	return index
}

// TestRewireD2Uniform is the uniformity gate of depth-2 randomizing
// rewiring, a local stand-in for an exact sampler. On tiny graphs whose
// 2K realizations reachable by swaps are enumerated exhaustively, it
// runs a long chain with the end-index proposer and with propose (kept
// on that path by a zero-score objective), samples the state every 10·M
// attempts, and requires both visit-frequency histograms to pass a χ²
// test against uniform at the 0.001 level.
func TestRewireD2Uniform(t *testing.T) {
	graphs := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"n6", 6, [][2]int{{2, 4}, {2, 5}, {0, 1}, {0, 3}, {1, 5}, {4, 5}}},
		{"n7", 7, [][2]int{{0, 6}, {0, 5}, {3, 5}, {2, 4}, {4, 6}, {3, 4}, {1, 4}, {2, 5}, {3, 6}, {0, 1}}},
		{"n8", 8, [][2]int{{0, 6}, {2, 7}, {2, 5}, {0, 5}, {0, 4}, {4, 5}, {1, 7}, {4, 7}, {0, 3}, {0, 7}, {4, 6}}},
	}
	const perState = 150
	for _, tc := range graphs {
		edges := make([]graph.Edge, len(tc.edges))
		for i, e := range tc.edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		g, err := graph.NewCSRFromEdges(tc.n, edges)
		if err != nil {
			t.Fatal(err)
		}
		states := realizations2K(g)
		samples := perState * len(states)
		// Wilson–Hilferty approximation of the χ² quantile at p = 0.001.
		df := float64(len(states) - 1)
		crit := df * math.Pow(1-2/(9*df)+3.09*math.Sqrt(2/(9*df)), 3)
		for _, p := range []struct {
			name string
			obj  Objective
		}{{"ends", nil}, {"propose", zeroObjective{}}} {
			r, err := NewRewirer(g.Clone(), 2, newRng(17))
			if err != nil {
				t.Fatal(err)
			}
			r.Obj = p.obj
			counts := make([]int, len(states))
			for i := 0; i < samples; i++ {
				for j := 0; j < 10*g.M(); j++ {
					if _, err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				s, ok := states[edgeMask(tc.n, r.G.Edges())]
				if !ok {
					t.Fatalf("%s/%s: chain left the enumerated 2K state space", tc.name, p.name)
				}
				counts[s]++
			}
			chi2 := 0.0
			for _, c := range counts {
				d := float64(c) - perState
				chi2 += d * d / perState
			}
			if chi2 > crit {
				t.Errorf("%s/%s: χ² = %.1f over %d states exceeds %.1f; visits %v",
					tc.name, p.name, chi2, len(states), crit, counts)
			}
			t.Logf("%s/%s: χ² = %.1f (critical %.1f, %d states, %d samples)", tc.name, p.name, chi2, crit, len(states), samples)
		}
	}
}
