package metrics

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// accumChunks bounds the number of chunks a parallel per-source sweep is
// split into — and therefore the maximum useful worker count for one
// sweep. The chunk split is a fixed policy (a function of the source
// count only — see parallel.Chunks) and partial accumulators are merged
// in chunk order via parallel.OrderedReduce, so the floating-point
// summation order is independent of the worker count: workers=1 and
// workers=N produce bit-identical results. The streaming merge holds
// only the out-of-order window of partials (≈ the active worker count)
// live at once, so a high chunk count costs allocation churn, not
// resident memory.
const accumChunks = 256

// brandesScratch is the per-worker reusable state of one Brandes
// single-source pass. Each pool worker owns one instance; instances are
// never shared across goroutines.
type brandesScratch struct {
	dist         []int32
	sigma, delta []float64 // shortest-path counts, dependency accumulator
	stack, queue []int32
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		stack: make([]int32, 0, n),
		queue: make([]int32, 0, n),
	}
}

// forward runs the shared first phase of a Brandes pass from src: BFS
// with shortest-path counting, filling dist, sigma, delta (zeroed) and
// the traversal stack. The node and edge variants differ only in their
// backward dependency loops.
func (sc *brandesScratch) forward(s *graph.CSR, src int) {
	n := s.N()
	for i := 0; i < n; i++ {
		sc.dist[i] = -1
		sc.sigma[i] = 0
		sc.delta[i] = 0
	}
	sc.dist[src] = 0
	sc.sigma[src] = 1
	sc.stack = sc.stack[:0]
	sc.queue = append(sc.queue[:0], int32(src))
	head := 0
	for head < len(sc.queue) {
		u := sc.queue[head]
		head++
		sc.stack = append(sc.stack, u)
		du := sc.dist[u]
		for _, v := range s.Neighbors(int(u)) {
			if sc.dist[v] < 0 {
				sc.dist[v] = du + 1
				sc.queue = append(sc.queue, v)
			}
			if sc.dist[v] == du+1 {
				sc.sigma[v] += sc.sigma[u]
			}
		}
	}
}

// accumulate runs one Brandes pass from src, adding the source's
// dependency contributions into bc.
func (sc *brandesScratch) accumulate(s *graph.CSR, src int, bc []float64) {
	sc.forward(s, src)
	// Dependency accumulation in reverse BFS order.
	for i := len(sc.stack) - 1; i > 0; i-- {
		w := sc.stack[i]
		coeff := (1 + sc.delta[w]) / sc.sigma[w]
		dw := sc.dist[w]
		for _, v := range s.Neighbors(int(w)) {
			if sc.dist[v] == dw-1 {
				sc.delta[v] += sc.sigma[v] * coeff
			}
		}
		bc[w] += sc.delta[w]
	}
}

// Betweenness computes exact node betweenness centrality with Brandes'
// algorithm in O(n·m). The returned values count, for each node v, the
// sum over source–target pairs (s ≠ t ≠ v) of the fraction of shortest
// s–t paths passing through v; each unordered pair is counted once.
func Betweenness(s *graph.CSR) []float64 {
	return betweenness(s, nil)
}

// SampledBetweenness estimates betweenness from `sources` random BFS
// roots, scaled up by n/sources so values are comparable to the exact
// computation. If sources >= n it is exact.
func SampledBetweenness(s *graph.CSR, sources int, rng *rand.Rand) []float64 {
	n := s.N()
	if sources >= n {
		return Betweenness(s)
	}
	perm := rng.Perm(n)[:sources]
	bc := betweenness(s, perm)
	scale := float64(n) / float64(sources)
	for i := range bc {
		bc[i] *= scale
	}
	return bc
}

// betweenness fans the per-source Brandes passes out over the worker
// pool. Sources are split into fixed chunks; each chunk accumulates into
// its own partial vector and partials are merged in chunk order, so the
// result is bit-identical at every worker count (see accumChunks).
func betweenness(s *graph.CSR, srcs []int) []float64 {
	n := s.N()
	srcAt := func(i int) int { return i }
	nsrc := n
	if srcs != nil {
		srcAt = func(i int) int { return srcs[i] }
		nsrc = len(srcs)
	}
	bc := make([]float64, n)
	scratch := make([]*brandesScratch, parallel.Workers())
	parallel.OrderedReduce(nsrc, accumChunks,
		func(worker, lo, hi int) []float64 {
			if scratch[worker] == nil {
				scratch[worker] = newBrandesScratch(n)
			}
			partial := make([]float64, n)
			for i := lo; i < hi; i++ {
				scratch[worker].accumulate(s, srcAt(i), partial)
			}
			return partial
		},
		func(partial []float64) {
			for i, x := range partial {
				bc[i] += x
			}
		})
	// Each unordered pair {s,t} was counted twice (once from s, once from
	// t) in the exact case; halve for the undirected convention. Sampled
	// runs approximate the same quantity after the caller's n/sources
	// scaling.
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// NormalizedBetweenness divides betweenness values by the number of node
// pairs n·(n−1)/2, yielding the dimensionless quantity plotted against
// degree in Figures 6(b) and 9 of the paper.
func NormalizedBetweenness(s *graph.CSR) []float64 {
	bc := Betweenness(s)
	n := float64(s.N())
	norm := n * (n - 1) / 2
	if norm == 0 {
		return bc
	}
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// MeanByDegree averages the values of a per-node metric over each degree
// class, returning degree → mean. This produces the per-degree series of
// Figures 6(b) and 9.
func MeanByDegree(s *graph.CSR, values []float64) map[int]float64 {
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for v, x := range values {
		d := s.Degree(v)
		sum[d] += x
		cnt[d]++
	}
	out := make(map[int]float64, len(sum))
	for k := range sum {
		out[k] = sum[k] / float64(cnt[k])
	}
	return out
}

// AutoBetweenness is the size-adaptive entry point: exact Brandes up to
// AutoSampleThreshold nodes, SampledBetweenness with AutoSampleSources
// sources above it. With a nil rng the exact pass always runs.
func AutoBetweenness(s *graph.CSR, rng *rand.Rand) []float64 {
	if s.N() > AutoSampleThreshold && rng != nil {
		return SampledBetweenness(s, AutoSampleSources, rng)
	}
	return Betweenness(s)
}
