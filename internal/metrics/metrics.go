// Package metrics computes the topology metrics of Section 2 of the paper:
// degree distribution, assortativity, likelihood (S) and second-order
// likelihood (S2), degree-dependent clustering C(k) and mean clustering C̄,
// the distance distribution with its mean d̄ and deviation σd, and node
// betweenness (Brandes' algorithm). The normalized-Laplacian spectrum
// (λ1, λ_{n−1}) lives in the companion package internal/spectral.
//
// All functions take a *graph.CSR and read its sorted neighbor windows in
// place, so the graph must not be mutated during a call. Metric
// comparisons in the paper are made on giant connected components, which
// callers extract first via graph.GiantComponent.
//
// The O(n·m) sweeps fan their BFS sources out over the worker pool of
// internal/parallel: betweenness and degree correlations one source at a
// time, distance distributions in bit-parallel batches of 64 sources.
// Partial results are accumulated per fixed chunk of sources (or
// batches) and merged in chunk order, so every function returns
// bit-identical values at any worker count — see DESIGN.md §3.
package metrics

import (
	"math"
	"math/bits"

	"repro/internal/graph"
)

// TriangleStats aggregates one exact triangle enumeration pass: per-node
// triangle membership counts and the sum over triangles of pairwise degree
// products (used to discount closed wedges in S2).
type TriangleStats struct {
	PerNode  []int64 // number of triangles containing each node
	Total    int64   // number of triangles in the graph
	SumProds float64 // Σ_triangles (d_a·d_b + d_a·d_c + d_b·d_c)
}

// Triangles enumerates every triangle exactly once, at its lowest-rank
// corner, where nodes are ranked by (degree, id). Each node keeps only
// its higher-rank neighbors (the forward adjacency, built once); a node
// u stamps its forward neighbors, and every stamped forward neighbor w
// of a forward neighbor v closes the triangle u–v–w. Forward windows
// hold at most O(√m) nodes, so the pass costs O(m·√m) whatever the node
// numbering. SumProds is summed exactly in 128 bits and rounded once.
func Triangles(s *graph.CSR) TriangleStats {
	n := s.N()
	ts := TriangleStats{PerNode: make([]int64, n)}
	before := func(u, v int) bool {
		du, dv := s.Degree(u), s.Degree(v)
		return du < dv || du == dv && u < v
	}
	// Every edge is forward from exactly one end, so fwd holds m ids.
	start := make([]int32, n+1)
	fwd := make([]int32, 0, s.M())
	for u := 0; u < n; u++ {
		for _, v := range s.Neighbors(u) {
			if before(u, int(v)) {
				fwd = append(fwd, v)
			}
		}
		start[u+1] = int32(len(fwd))
	}
	stamp := make([]int32, n) // u+1 marks u's forward neighbors
	var hi, lo uint64         // SumProds as a 128-bit integer
	for u := 0; u < n; u++ {
		fu := fwd[start[u]:start[u+1]]
		if len(fu) < 2 {
			continue
		}
		mark := int32(u) + 1
		for _, v := range fu {
			stamp[v] = mark
		}
		du := uint64(s.Degree(u))
		for _, v := range fu {
			dv := uint64(s.Degree(int(v)))
			for _, w := range fwd[start[v]:start[v+1]] {
				if stamp[w] != mark {
					continue
				}
				ts.PerNode[u]++
				ts.PerNode[v]++
				ts.PerNode[w]++
				ts.Total++
				dw := uint64(s.Degree(int(w)))
				var carry uint64
				lo, carry = bits.Add64(lo, du*dv+du*dw+dv*dw, 0)
				hi += carry
			}
		}
	}
	ts.SumProds = uint128ToFloat(hi, lo)
	return ts
}

// uint128ToFloat rounds hi·2⁶⁴ + lo to the nearest float64.
func uint128ToFloat(hi, lo uint64) float64 {
	if hi == 0 {
		return float64(lo)
	}
	// Keep the top 64 bits and fold the dropped ones into a sticky bit,
	// far below the rounding position, so one conversion rounds right.
	shift := 64 - bits.LeadingZeros64(hi)
	top := hi<<(64-shift) | lo>>shift
	if lo<<(64-shift) != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), shift)
}

// Assortativity returns Newman's assortativity coefficient r: the Pearson
// correlation of the degrees at either end of an edge. It returns 0 for
// graphs with no edges or zero degree variance at edge ends (e.g. regular
// graphs).
func Assortativity(s *graph.CSR) float64 {
	m := float64(s.M())
	if m == 0 {
		return 0
	}
	var sumProd, sumHalf, sumHalfSq float64
	for u := 0; u < s.N(); u++ {
		du := float64(s.Degree(u))
		for _, v32 := range s.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			dv := float64(s.Degree(v))
			sumProd += du * dv
			sumHalf += (du + dv) / 2
			sumHalfSq += (du*du + dv*dv) / 2
		}
	}
	num := sumProd/m - (sumHalf/m)*(sumHalf/m)
	den := sumHalfSq/m - (sumHalf/m)*(sumHalf/m)
	if den == 0 {
		return 0
	}
	return num / den
}

// LikelihoodS returns S = Σ_{(u,v)∈E} d_u·d_v, the likelihood metric of Li
// et al. that the paper uses for 1K-space exploration.
func LikelihoodS(s *graph.CSR) float64 {
	var sum float64
	for u := 0; u < s.N(); u++ {
		du := float64(s.Degree(u))
		for _, v32 := range s.Neighbors(u) {
			if int(v32) > u {
				sum += du * float64(s.Degree(int(v32)))
			}
		}
	}
	return sum
}

// S2 returns the second-order likelihood: the sum over open wedges (paths
// a–c–b with a,b non-adjacent) of the products of the end degrees d_a·d_b.
// It is computed without enumerating wedges: all neighbor pairs of each
// center contribute ((Σd)²−Σd²)/2, and one triangle pass subtracts the
// closed pairs.
func S2(s *graph.CSR) float64 { return s2(s, Triangles(s)) }

// s2 is S2 with the triangle pass already done.
func s2(s *graph.CSR, ts TriangleStats) float64 {
	var allPairs float64
	for c := 0; c < s.N(); c++ {
		var sum, sumSq float64
		for _, v32 := range s.Neighbors(c) {
			d := float64(s.Degree(int(v32)))
			sum += d
			sumSq += d * d
		}
		allPairs += (sum*sum - sumSq) / 2
	}
	return allPairs - ts.SumProds
}

// LocalClustering returns each node's clustering coefficient
// c(v) = triangles(v)/C(d_v,2); nodes of degree < 2 get 0.
func LocalClustering(s *graph.CSR) []float64 { return localClustering(s, Triangles(s)) }

// localClustering is LocalClustering with the triangle pass already done.
func localClustering(s *graph.CSR, ts TriangleStats) []float64 {
	out := make([]float64, s.N())
	for v := range out {
		d := s.Degree(v)
		if d >= 2 {
			out[v] = 2 * float64(ts.PerNode[v]) / (float64(d) * float64(d-1))
		}
	}
	return out
}

// MeanClustering returns C̄, the mean local clustering over nodes of
// degree >= 2 (nodes that can participate in a triangle). Returns 0 when
// no such node exists.
func MeanClustering(s *graph.CSR) float64 { return MeanClusteringFrom(s, Triangles(s).PerNode) }

// MeanClusteringFrom is MeanClustering from per-node triangle counts
// already at hand, such as a rewiring objective's running counts: it
// sums 2·t(v)/(d(d−1)) over the nodes of degree >= 2 in node order and
// divides by their count, so for the same counts it returns the same
// float as MeanClustering, bit for bit.
func MeanClusteringFrom(s *graph.CSR, perNode []int64) float64 {
	var sum float64
	cnt := 0
	for v, t := range perNode {
		if d := s.Degree(v); d >= 2 {
			sum += 2 * float64(t) / (float64(d) * float64(d-1))
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// ClusteringByDegree returns C(k): the mean local clustering of degree-k
// nodes, for every degree k >= 2 present in the graph.
func ClusteringByDegree(s *graph.CSR) map[int]float64 {
	cl := LocalClustering(s)
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for v, c := range cl {
		if d := s.Degree(v); d >= 2 {
			sum[d] += c
			cnt[d]++
		}
	}
	out := make(map[int]float64, len(sum))
	for k, sc := range sum {
		out[k] = sc / float64(cnt[k])
	}
	return out
}

// GlobalTransitivity returns 3·triangles / (number of connected node
// triples), an alternative clustering summary provided for completeness.
func GlobalTransitivity(s *graph.CSR) float64 {
	ts := Triangles(s)
	var wedgesIncl float64 // neighbor pairs around every center
	for c := 0; c < s.N(); c++ {
		d := float64(s.Degree(c))
		wedgesIncl += d * (d - 1) / 2
	}
	if wedgesIncl == 0 {
		return 0
	}
	return 3 * float64(ts.Total) / wedgesIncl
}

// DegreeHistogram returns n(k) for the graph.
func DegreeHistogram(s *graph.CSR) map[int]int {
	out := make(map[int]int)
	for u := 0; u < s.N(); u++ {
		out[s.Degree(u)]++
	}
	return out
}

// SMaxGreedy estimates S_max for a degree sequence: the maximum of S over
// simple connected graphs with that degree sequence, per Li et al.'s
// construction — connect stubs in order of decreasing degree product,
// highest-degree nodes first. The estimate is a tight upper-shape greedy,
// not an exact optimum; the paper itself uses it only as a normalization.
func SMaxGreedy(seq []int) float64 {
	// Sort degrees descending; pair remaining stubs greedily: the node
	// with the most remaining stubs connects to the next-highest nodes.
	type nd struct{ deg, left int }
	nodes := make([]nd, len(seq))
	for i, d := range seq {
		nodes[i] = nd{d, d}
	}
	// Selection by degree descending.
	for i := range nodes {
		maxJ := i
		for j := i + 1; j < len(nodes); j++ {
			if nodes[j].deg > nodes[maxJ].deg {
				maxJ = j
			}
		}
		nodes[i], nodes[maxJ] = nodes[maxJ], nodes[i]
	}
	var S float64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes) && nodes[i].left > 0; j++ {
			if nodes[j].left > 0 {
				S += float64(nodes[i].deg) * float64(nodes[j].deg)
				nodes[i].left--
				nodes[j].left--
			}
		}
	}
	return S
}

// RadiusOfValues is a small helper returning min and max of a slice;
// convenient when reporting metric spreads across seeds.
func RadiusOfValues(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
