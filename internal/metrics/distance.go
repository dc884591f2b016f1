package metrics

import (
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// DistanceDistribution holds the hop-distance histogram of a graph:
// Count[x] is the number of ordered node pairs (u,v), u ≠ v, at shortest-
// path distance x (index 0 is unused and zero). Unreachable pairs are
// tallied separately. When built by sampling, counts cover only the
// sampled sources but remain an unbiased estimator of the pair fractions.
type DistanceDistribution struct {
	Count       []int64
	Unreachable int64
	Sources     int // number of BFS sources used
}

// Distances computes the exact distance distribution by running a BFS from
// every node. Cost is O(n·m).
func Distances(s *graph.CSR) *DistanceDistribution {
	return distances(s, nil, nil)
}

// SampledDistances estimates the distribution using BFS from `sources`
// random distinct source nodes. If sources >= n the computation is exact.
// Non-positive sources yield an empty distribution (Sources = 0, no
// counts) rather than a panic — callers asking for zero samples get the
// zero estimate.
//
// The sources are drawn by a partial Fisher–Yates shuffle costing
// O(sources) time, memory, and RNG draws — not the full O(n) rng.Perm of
// earlier versions, which allocated an n-element permutation (and burned
// n RNG draws) even for tiny samples. The RNG stream therefore differs
// from pre-rewrite versions: the same seed selects a different (still
// uniform) source set. See docs/PERF.md.
func SampledDistances(s *graph.CSR, sources int, rng *rand.Rand) *DistanceDistribution {
	n := s.N()
	if sources <= 0 {
		return &DistanceDistribution{Count: make([]int64, 2)}
	}
	if sources >= n {
		return Distances(s)
	}
	return distances(s, partialPerm(rng, n, sources), rng)
}

// partialPerm returns k distinct uniform draws from [0, n) — the first k
// entries of a Fisher–Yates shuffle, with the swap targets kept in a
// sparse map so cost is O(k) rather than O(n).
func partialPerm(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	displaced := make(map[int]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}

// bfsScratch is the reusable per-worker state of one BFS pass, shared by
// the distance and degree-correlation sweeps.
type bfsScratch struct{ dist, queue []int32 }

// bfsScratchFor lazily initializes the calling worker's scratch slot.
func bfsScratchFor(scratch []*bfsScratch, worker, n int) *bfsScratch {
	if scratch[worker] == nil {
		scratch[worker] = &bfsScratch{
			dist:  make([]int32, n),
			queue: make([]int32, 0, n),
		}
	}
	return scratch[worker]
}

// distances fans the per-source BFS sweeps out over the worker pool.
// Each chunk of sources tallies into its own histogram; histograms hold
// integer counts, so merging them (in chunk order, for uniformity with
// the float-valued metrics) is exact and worker-count independent.
func distances(s *graph.CSR, srcs []int, _ *rand.Rand) *DistanceDistribution {
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

// TotalPairs returns the number of ordered reachable pairs counted.
func (dd *DistanceDistribution) TotalPairs() int64 {
	var t int64
	for _, c := range dd.Count {
		t += c
	}
	return t
}

// Mean returns the average distance d̄ over reachable ordered pairs.
func (dd *DistanceDistribution) Mean() float64 {
	t := dd.TotalPairs()
	if t == 0 {
		return 0
	}
	var sum float64
	for x, c := range dd.Count {
		sum += float64(x) * float64(c)
	}
	return sum / float64(t)
}

// StdDev returns σd, the standard deviation of the distance distribution.
func (dd *DistanceDistribution) StdDev() float64 {
	t := dd.TotalPairs()
	if t == 0 {
		return 0
	}
	mean := dd.Mean()
	var sum float64
	for x, c := range dd.Count {
		d := float64(x) - mean
		sum += d * d * float64(c)
	}
	return math.Sqrt(sum / float64(t))
}

// PDF returns the distribution normalized over reachable pairs: PDF()[x]
// is the fraction of pairs at distance x. This is the series plotted in
// Figures 5(b,c), 6(a) and 8 of the paper.
func (dd *DistanceDistribution) PDF() []float64 {
	t := dd.TotalPairs()
	out := make([]float64, len(dd.Count))
	if t == 0 {
		return out
	}
	for x, c := range dd.Count {
		out[x] = float64(c) / float64(t)
	}
	return out
}

// MaxDistance returns the largest observed distance (the diameter when the
// distribution is exact and the graph connected).
func (dd *DistanceDistribution) MaxDistance() int {
	for x := len(dd.Count) - 1; x > 0; x-- {
		if dd.Count[x] > 0 {
			return x
		}
	}
	return 0
}
