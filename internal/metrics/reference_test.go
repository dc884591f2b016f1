package metrics

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// distancesReference is the per-source BFS sweep that distances replaced:
// one graph.BFS per source, each tallying its distance row. It is kept as
// the reference the bit-parallel kernel must match field for field.
func distancesReference(s *graph.CSR, srcs []int) *DistanceDistribution {
	n := s.N()
	srcAt := func(i int) int { return i }
	nsrc := n
	if srcs != nil {
		srcAt = func(i int) int { return srcs[i] }
		nsrc = len(srcs)
	}
	dd := &DistanceDistribution{Count: make([]int64, 2), Sources: nsrc}
	scratch := make([]*bfsScratch, parallel.Workers())
	parallel.OrderedReduce(nsrc, accumChunks,
		func(worker, lo, hi int) *DistanceDistribution {
			sc := bfsScratchFor(scratch, worker, n)
			part := &DistanceDistribution{Count: make([]int64, 2)}
			for i := lo; i < hi; i++ {
				reached := graph.BFS(s, srcAt(i), sc.dist, sc.queue)
				part.Unreachable += int64(n - reached)
				for _, d := range sc.dist {
					if d <= 0 {
						continue
					}
					for int(d) >= len(part.Count) {
						part.Count = append(part.Count, 0)
					}
					part.Count[d]++
				}
			}
			return part
		},
		func(part *DistanceDistribution) {
			dd.Unreachable += part.Unreachable
			for x, cnt := range part.Count {
				for x >= len(dd.Count) {
					dd.Count = append(dd.Count, 0)
				}
				dd.Count[x] += cnt
			}
		})
	return dd
}

// trianglesReference is the triangle pass that Triangles replaced: each
// triangle is found at its ordered corners u < v < w by scanning the
// smaller window of each canonical edge (u,v) and binary-searching the
// larger, with SumProds accumulated in float64.
func trianglesReference(s *graph.CSR) TriangleStats {
	n := s.N()
	ts := TriangleStats{PerNode: make([]int64, n)}
	deg := make([]float64, n)
	for u := 0; u < n; u++ {
		deg[u] = float64(s.Degree(u))
	}
	for u := 0; u < n; u++ {
		for _, v32 := range s.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			a, b := u, v
			if s.Degree(a) > s.Degree(b) {
				a, b = b, a
			}
			for _, w32 := range s.Neighbors(a) {
				w := int(w32)
				if w <= v {
					continue
				}
				if s.HasEdge(b, w) {
					ts.PerNode[u]++
					ts.PerNode[v]++
					ts.PerNode[w]++
					ts.Total++
					ts.SumProds += deg[u]*deg[v] + deg[u]*deg[w] + deg[v]*deg[w]
				}
			}
		}
	}
	return ts
}

// componentsGraph builds an n-node graph of comps random components (a
// random tree plus chords each), with about one node in eight left
// isolated. Deterministic for a given seed.
func componentsGraph(seed int64, n, comps, chords int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewCSR(n)
	members := make([][]int, comps)
	for v := 0; v < n; v++ {
		if rng.Intn(8) != 0 {
			c := rng.Intn(comps)
			members[c] = append(members[c], v)
		}
	}
	for _, ms := range members {
		for i := 1; i < len(ms); i++ {
			_ = g.AddEdge(ms[i], ms[rng.Intn(i)])
		}
		for i := 0; len(ms) > 2 && i < chords/comps; i++ {
			u, v := ms[rng.Intn(len(ms))], ms[rng.Intn(len(ms))]
			if u != v && !g.HasEdge(u, v) {
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// FuzzDistancesMatchReference checks the bit-parallel distances against
// the per-source sweep field for field, len(Count) included. Sources
// are all nodes when k is 0 or at least n, else k draws of partialPerm;
// the seeds cover batch edges (n and k around 64), isolated nodes,
// several components, and 1 and 3 workers.
func FuzzDistancesMatchReference(f *testing.F) {
	for _, n := range []uint8{63, 64, 65, 129} {
		for _, k := range []uint8{1, 63, 64, 65, 0} {
			for _, w := range []uint8{1, 3} {
				f.Add(int64(n)*7+int64(k), n, uint8(3), uint16(2*int(n)), k, w)
			}
		}
	}
	f.Add(int64(1), uint8(1), uint8(1), uint16(0), uint8(0), uint8(1))
	f.Add(int64(2), uint8(0), uint8(1), uint16(0), uint8(0), uint8(3))
	f.Add(int64(3), uint8(200), uint8(1), uint16(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, comps uint8, chords uint16, k, workers uint8) {
		g := componentsGraph(seed, int(n), 1+int(comps)%8, int(chords)%1024)
		var srcs []int
		if k > 0 && int(k) < g.N() {
			srcs = partialPerm(rand.New(rand.NewSource(seed)), g.N(), int(k))
		}
		var got, want *DistanceDistribution
		withWorkers(1+int(workers)%3, func() {
			got = distances(g, srcs, nil)
			want = distancesReference(g, srcs)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d k=%d: got %+v, want %+v", g.N(), len(srcs), got, want)
		}
	})
}

// sameTriangles fails unless got equals want field for field, SumProds
// to the bit.
func sameTriangles(t *testing.T, name string, got, want TriangleStats) {
	t.Helper()
	if got.Total != want.Total || math.Float64bits(got.SumProds) != math.Float64bits(want.SumProds) ||
		!reflect.DeepEqual(got.PerNode, want.PerNode) {
		t.Errorf("%s: got Total=%d SumProds=%v, want Total=%d SumProds=%v (or PerNode differs)",
			name, got.Total, got.SumProds, want.Total, want.SumProds)
	}
}

func clique(t testing.TB, k int) *graph.CSR {
	g := graph.NewCSR(k)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

// TestTrianglesMatchReference compares the degree-ordered pass with the
// retired u<v<w scan on stars, cliques and random graphs;
// TestTrianglesMatchReferencePowerLaw adds an ingested power-law graph.
func TestTrianglesMatchReference(t *testing.T) {
	for _, leaves := range []int{0, 1, 2, 7, 300} {
		g := star(t, leaves)
		sameTriangles(t, "star", Triangles(g), trianglesReference(g))
	}
	for _, k := range []int{1, 2, 3, 4, 9, 40} {
		g := clique(t, k)
		sameTriangles(t, "clique", Triangles(g), trianglesReference(g))
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		g := connectedRandom(rng, 5+rng.Intn(80), rng.Intn(400))
		sameTriangles(t, "random", Triangles(g), trianglesReference(g))
	}
	sameTriangles(t, "paw", Triangles(paw(t)), trianglesReference(paw(t)))
}

// TestUint128ToFloatRounds checks the SumProds conversion against
// math/big's correctly rounded one, ties and sticky bits included.
func TestUint128ToFloatRounds(t *testing.T) {
	cases := [][2]uint64{
		{0, 0}, {0, 1}, {0, math.MaxUint64}, {1, 0}, {1, 1 << 10},
		{1, 1<<11 | 1}, {1<<52 | 1, 1 << 63}, {1<<52 | 1, 1<<63 | 1},
		{math.MaxUint64, math.MaxUint64},
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		cases = append(cases, [2]uint64{rng.Uint64() >> rng.Intn(64), rng.Uint64()})
	}
	for _, c := range cases {
		x := new(big.Int).Lsh(new(big.Int).SetUint64(c[0]), 64)
		x.Add(x, new(big.Int).SetUint64(c[1]))
		want, _ := new(big.Float).SetInt(x).Float64()
		if got := uint128ToFloat(c[0], c[1]); got != want {
			t.Fatalf("uint128ToFloat(%#x, %#x) = %v, want %v", c[0], c[1], got, want)
		}
	}
}
