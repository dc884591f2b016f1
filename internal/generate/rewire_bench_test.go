package generate

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/stats"
)

// powerLawBenchGraph is the input of BenchmarkRewireD2PowerLaw: the
// giant component of a γ=2 power-law graph on 50k nodes, matched from a
// seed-2 degree sequence.
func powerLawBenchGraph(tb testing.TB) *graph.CSR {
	tb.Helper()
	const n = 50000
	rng := newRng(2)
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(n)))
	if err != nil {
		tb.Fatal(err)
	}
	seq := pl.DegreeSequence(rng, n)
	for !dk.Graphical(seq) {
		seq = pl.DegreeSequence(rng, n)
	}
	g, err := Matching1K(dk.NewDegreeDist(seq), Options{Rng: rng})
	if err != nil {
		tb.Fatal(err)
	}
	g, _ = graph.GiantComponent(g)
	return g
}

// BenchmarkRewireD2PowerLaw times depth-2 dK-randomizing rewiring on a
// γ=2 power-law graph of about 50k nodes, large enough that the edge
// list, the adjacency windows and the degree table do not fit in cache:
// each proposal's edge draws and checks are cache misses, as in
// rewiring at the paper's scale. One op is a Randomize run that stops
// once SwapFactor·M swaps are accepted (its budget is 10·SwapFactor·M
// proposals). SwapFactor1 is the short run the figures in docs/PERF.md
// have tracked since the benchmark began; the clone, the end index and
// the write-back are about a quarter of its op. SwapFactor10 is the
// default budget Generate runs, where the swap loop dominates. Each
// reports ns per attempted proposal and ns per accepted swap: proposals
// drawn from the end index are mostly accepted, so ns/attempt rises
// with the acceptance ratio, while ns/accepted tracks the cost of the
// run's real work. B/edge is the heap allocated per op over M, the
// figure TestRandomizeD2AllocBudget bounds.
func BenchmarkRewireD2PowerLaw(b *testing.B) {
	g := powerLawBenchGraph(b)
	for _, swapFactor := range []int{1, 10} {
		b.Run(fmt.Sprintf("SwapFactor%d", swapFactor), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			attempts, accepted, ops := 0, 0, 0
			for seed := int64(0); b.Loop(); seed++ {
				_, st, err := Randomize(g, 2, RandomizeOptions{Rng: newRng(seed), SwapFactor: swapFactor})
				if err != nil {
					b.Fatal(err)
				}
				attempts += st.Attempts
				accepted += st.Accepted
				ops++
			}
			runtime.ReadMemStats(&after)
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(attempts), "ns/attempt")
			b.ReportMetric(ns/float64(accepted), "ns/accepted")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(ops*g.M()), "B/edge")
		})
	}
}
