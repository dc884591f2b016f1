package generate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// TestHavelHakimiMatchesGraphical runs havelHakimi on every degree
// sequence of up to six nodes: it must succeed exactly on the sequences
// dk.Graphical accepts, and then emit a simple graph with those degrees.
func TestHavelHakimiMatchesGraphical(t *testing.T) {
	for n := 1; n <= 6; n++ {
		deg := make([]int, n)
		for {
			g := graph.NewCSR(n)
			simple := true
			ok := havelHakimi(deg, func(u, v int) {
				if u == v || g.AddEdge(u, v) != nil {
					simple = false
				}
			})
			if want := dk.Graphical(deg); ok != want {
				t.Fatalf("havelHakimi(%v) = %v; Graphical says %v", deg, ok, want)
			}
			if ok && !simple {
				t.Fatalf("havelHakimi(%v) emitted a self-loop or a duplicate edge", deg)
			}
			for u := 0; ok && u < n; u++ {
				if g.Degree(u) != deg[u] {
					t.Fatalf("havelHakimi(%v): node %d has degree %d", deg, u, g.Degree(u))
				}
			}
			// Next sequence in [0, n)^n, odometer order.
			i := 0
			for i < n && deg[i] == n-1 {
				deg[i] = 0
				i++
			}
			if i == n {
				break
			}
			deg[i]++
		}
	}
}

// TestMatching2KUniform is the uniformity gate of 2K matching. On tiny
// graphs whose 2K realizations are enumerated exhaustively, it draws
// Matching2K replicas of their JDD and requires the visit-frequency
// histogram over the realizations to pass a χ² test against uniform at
// the 0.001 level. Node ids are already in class order (degrees
// ascending), so each realization Matching2K returns, with its dense
// class-ordered ids, is one of the enumerated labeled graphs.
func TestMatching2KUniform(t *testing.T) {
	graphs := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"n6", 6, [][2]int{{0, 1}, {1, 2}, {2, 5}, {3, 4}, {3, 5}, {4, 5}}},
		{"n7", 7, [][2]int{{0, 2}, {0, 6}, {1, 4}, {1, 6}, {2, 4}, {2, 5}, {3, 4}, {3, 5}, {3, 6}, {5, 6}}},
		{"n8", 8, [][2]int{{0, 6}, {1, 7}, {2, 4}, {2, 6}, {3, 5}, {3, 7}, {4, 5}, {4, 7}, {5, 6}, {5, 7}, {6, 7}}},
	}
	const perState = 150
	rng := newRng(23)
	for _, tc := range graphs {
		edges := make([]graph.Edge, len(tc.edges))
		for i, e := range tc.edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
		}
		g, err := graph.NewCSRFromEdges(tc.n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for u := 1; u < tc.n; u++ {
			if g.Degree(u) < g.Degree(u-1) {
				t.Fatalf("%s: node ids are not in class order", tc.name)
			}
		}
		p, err := dk.Extract(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		states := realizations2K(g)
		samples := perState * len(states)
		df := float64(len(states) - 1)
		crit := df * math.Pow(1-2/(9*df)+3.09*math.Sqrt(2/(9*df)), 3)
		counts := make([]int, len(states))
		for range samples {
			r, err := Matching2K(p.Joint, Options{Rng: rng})
			if err != nil {
				t.Fatal(err)
			}
			s, ok := states[edgeMask(tc.n, r.Edges())]
			if !ok {
				t.Fatalf("%s: Matching2K returned a graph outside the enumerated 2K realizations", tc.name)
			}
			counts[s]++
		}
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - perState
			chi2 += d * d / perState
		}
		if chi2 > crit {
			t.Errorf("%s: χ² = %.1f over %d states exceeds %.1f; visits %v", tc.name, chi2, len(states), crit, counts)
		}
		t.Logf("%s: χ² = %.1f (critical %.1f, %d states, %d samples)", tc.name, chi2, crit, len(states), samples)
	}
}

// FuzzMatching2K builds the JDD of a fuzzed small graph with Matching2K:
// the result must be simple and realize the JDD exactly. The JDD is then
// given a fresh class pair that no simple graph realizes, a same-class
// or a cross-class one; Matching2K must return no graph and an error
// naming that pair.
func FuzzMatching2K(f *testing.F) {
	f.Add(int64(1), false, []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 4, 5, 5, 6, 6, 4, 1, 5})
	f.Add(int64(7), true, []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(int64(-3), false, []byte{1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 1, 3, 2, 4, 6, 7, 7, 8})
	f.Add(int64(11), true, []byte{9, 8})

	f.Fuzz(func(t *testing.T, seed int64, cross bool, data []byte) {
		n := 4 + len(data)%13
		g := graph.NewCSR(n)
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v) //nolint:errcheck // a repeated pair is skipped, as the input allows
			}
		}
		if g.M() == 0 {
			return
		}
		p, err := dk.Extract(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Matching2K(p.Joint, Options{Rng: rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatalf("Matching2K of a graph's JDD: %v", err)
		}
		if _, err := graph.NewCSRFromEdges(out.N(), out.Edges()); err != nil {
			t.Fatalf("Matching2K returned a graph that is not simple: %v", err)
		}
		q, err := dk.Extract(out, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out.M() != p.M || dk.D2(p.Joint, q.Joint) != 0 {
			t.Fatalf("Matching2K: m=%d D2=%v; want m=%d D2=0", out.M(), dk.D2(p.Joint, q.Joint), p.M)
		}

		// A fresh class pair over its bound, rows still divisible: with
		// K = 2(Δ+1), m(K,K) = K/2 puts K/2 edges in a one-node class,
		// and m(K,2K) = 2K puts 2K edges between classes of two nodes
		// and one.
		bad := p.Joint.Clone()
		k := 2 * (g.MaxDegree() + 1)
		pair := dk.NewDegPair(k, k)
		if cross {
			pair = dk.NewDegPair(k, 2*k)
			bad.Add(k, 2*k, 2*k)
		} else {
			bad.Add(k, k, k/2)
		}
		out, err = Matching2K(bad, Options{Rng: rand.New(rand.NewSource(seed))})
		name := fmt.Sprintf("(%d,%d)", pair.K1, pair.K2)
		if out != nil || err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("Matching2K of a non-graphical JDD = %v, %v; want no graph and an error naming %s", out, err, name)
		}
	})
}
