package metrics

import (
	"math"
	"math/bits"
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
// every node, 64 sources per bit-parallel batch. Cost is O(n·m) at worst.
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

// bfsScratch is the reusable per-worker state of one BFS pass, used by
// the degree-correlation sweep.
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

// msbfsScratch is the per-worker state of one bit-parallel multi-source
// BFS batch: bit i of a node's word stands for the batch's i-th source.
type msbfsScratch struct{ seen, frontier, next []uint64 }

// distances runs the sources as bit-parallel multi-source BFS (MS-BFS,
// Then et al., VLDB 2014): each batch of 64 sources sweeps the graph
// once per level, ORing every frontier word into the neighbors' next
// words, so a node reached by many sources at the same depth is expanded
// once. A node's newly reached bits at level x are next &^ seen, and
// their popcount is its share of Count[x]. Batches fan out over the
// worker pool; the histograms hold integer counts, so merging them is
// exact and worker-count independent. Scratch is three words per node
// per worker.
func distances(s *graph.CSR, srcs []int, _ *rand.Rand) *DistanceDistribution {
	n := s.N()
	srcAt := func(i int) int { return i }
	nsrc := n
	if srcs != nil {
		srcAt = func(i int) int { return srcs[i] }
		nsrc = len(srcs)
	}
	dd := &DistanceDistribution{Count: make([]int64, 2), Sources: nsrc}
	scratch := make([]*msbfsScratch, parallel.Workers())
	parallel.OrderedReduce((nsrc+63)/64, accumChunks,
		func(worker, lo, hi int) []int64 {
			if scratch[worker] == nil {
				scratch[worker] = &msbfsScratch{
					seen:     make([]uint64, n),
					frontier: make([]uint64, n),
					next:     make([]uint64, n),
				}
			}
			sc := scratch[worker]
			count := make([]int64, 2)
			for b := lo; b < hi; b++ {
				clear(sc.seen)
				clear(sc.frontier)
				for i := b * 64; i < min(nsrc, b*64+64); i++ {
					bit := uint64(1) << (i - b*64)
					src := srcAt(i)
					sc.seen[src] |= bit
					sc.frontier[src] |= bit
				}
				for x := 1; ; x++ {
					for u, f := range sc.frontier {
						if f == 0 {
							continue
						}
						sc.frontier[u] = 0
						for _, v := range s.Neighbors(u) {
							sc.next[v] |= f
						}
					}
					var reached int64
					for v, nx := range sc.next {
						if nx == 0 {
							continue
						}
						sc.next[v] = 0
						if fresh := nx &^ sc.seen[v]; fresh != 0 {
							sc.frontier[v] = fresh
							sc.seen[v] |= fresh
							reached += int64(bits.OnesCount64(fresh))
						}
					}
					if reached == 0 {
						break
					}
					if x == len(count) {
						count = append(count, 0)
					}
					count[x] += reached
				}
			}
			return count
		},
		func(count []int64) {
			for x, c := range count {
				if x == len(dd.Count) {
					dd.Count = append(dd.Count, 0)
				}
				dd.Count[x] += c
			}
		})
	dd.Unreachable = int64(nsrc)*int64(n-1) - dd.TotalPairs()
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
