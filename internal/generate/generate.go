// Package generate implements every dK-graph construction approach from
// Section 4.1 of the paper:
//
//   - stochastic: classical G(n,p) for 0K, Chung–Lu for 1K, and the
//     hidden-variable class-pair construction for 2K;
//   - pseudograph (configuration): stub matching for 1K (PLRG) and the
//     paper's new edge-end grouping algorithm for 2K;
//   - matching: loop-avoiding stub matching for 1K with deadlock
//     resolution by edge re-breaking, and for 2K an exact balanced
//     realization of the JDD randomized by JDD-preserving swaps;
//   - rewiring: dK-preserving randomizing rewiring for d = 0..3;
//   - targeting: dK-targeting d′K-preserving rewiring (Metropolis
//     dynamics) with zero-temperature or fixed-temperature acceptance;
//   - exploration: dK-space exploration by maximizing/minimizing scalar
//     metrics (S, S2, C̄) under dK-preserving rewiring.
//
// All generators are deterministic given the caller-supplied *rand.Rand,
// and each runs single-threaded; ensemble workloads parallelize across
// replicas instead (Replicas), with one seed-derived
// RNG stream per replica so results are worker-count independent.
package generate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Options carries common knobs for the construction algorithms.
type Options struct {
	// Rng is the random source; required by every generator.
	Rng *rand.Rand
	// MaxAttempts bounds Matching1K's stub-pairing retries and edge
	// re-breaking probes; no other generator reads it. Zero selects the
	// default of 200.
	MaxAttempts int
}

func (o Options) rng() (*rand.Rand, error) {
	if o.Rng == nil {
		return nil, fmt.Errorf("generate: Options.Rng is required")
	}
	return o.Rng, nil
}

// blockSample adds, in expectation, p·|block| edges among a block of node
// pairs that all share the same connection probability p, using geometric
// index skipping so the cost is proportional to the number of edges
// generated rather than the number of pairs. pairAt maps a linear index in
// [0, total) to a node pair. Duplicate edges cannot occur because each
// pair has a unique index.
func blockSample(rng *rand.Rand, total int64, p float64, pairAt func(int64) (int, int), add func(u, v int)) {
	if p <= 0 || total <= 0 {
		return
	}
	if p >= 1 {
		for idx := int64(0); idx < total; idx++ {
			u, v := pairAt(idx)
			add(u, v)
		}
		return
	}
	// Geometric skipping: the gap between successive successes is
	// Geometric(p); generate via inverse transform.
	logq := math.Log1p(-p)
	idx := int64(-1)
	for {
		u := rng.Float64()
		// Draw gap >= 1.
		gap := int64(math.Floor(math.Log(u)/logq)) + 1
		if gap < 1 {
			gap = 1
		}
		idx += gap
		if idx >= total {
			return
		}
		a, b := pairAt(idx)
		add(a, b)
	}
}

// unrankSamePair maps a linear index in [0, C(n,2)) to the pair (i, j)
// with i < j, enumerating pairs row by row: (0,1),(0,2),...,(0,n-1),(1,2),...
func unrankSamePair(idx int64, n int) (int, int) {
	// Row i starts at offset f(i) = i·n − i·(i+1)/2 − i ... solve by a
	// conservative closed form then fix up locally.
	nf := float64(n)
	i := int((2*nf - 1 - math.Sqrt((2*nf-1)*(2*nf-1)-8*float64(idx))) / 2)
	if i < 0 {
		i = 0
	}
	rowStart := func(i int64) int64 { return i*int64(n) - i*(i+1)/2 }
	for i > 0 && rowStart(int64(i)) > idx {
		i--
	}
	for int64(i) < int64(n)-1 && rowStart(int64(i)+1) <= idx {
		i++
	}
	j := i + 1 + int(idx-rowStart(int64(i)))
	return i, j
}

// Stochastic0K builds a classical Erdős–Rényi G(n,p) graph with
// p = k̄/n, reproducing the target average degree in expectation.
func Stochastic0K(n int, avgDegree float64, opt Options) (*graph.CSR, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("generate: n = %d", n)
	}
	p := avgDegree / float64(n)
	if p > 1 {
		p = 1
	}
	g := graph.NewCSR(n)
	total := int64(n) * int64(n-1) / 2
	blockSample(rng, total, p,
		func(idx int64) (int, int) { return unrankSamePair(idx, n) },
		func(u, v int) {
			if err := g.AddEdge(u, v); err != nil {
				panic("generate: duplicate index in blockSample: " + err.Error())
			}
		})
	return g, nil
}
