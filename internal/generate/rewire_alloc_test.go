package generate

import (
	"runtime"
	"testing"
)

// randomizeD2BytesPerEdge bounds the heap one depth-2 Randomize run
// allocates per edge, on the graph of BenchmarkRewireD2PowerLaw
// (N = 44,980, M = 101,915). The measured 69.8 B/edge is
//
//	24·M + 12·N   the working clone: neighbor and edge-index arenas,
//	              edge list, start/deg/wcap
//	 8·N          the Rewirer's degree cache
//	16·M          the end index: at and byFar
//	 8·C          the edge set, C = next power of two ≥ 2·M (20.6·M here)
//
// plus O(max degree) scratch, against 50 B/edge before the edge set. The
// budget is about 1.3 times the measurement: room for runtime drift and
// a table at the top of its power-of-two range (8·C ≤ 32·M), not for a
// second copy of the edge list or the arenas.
const randomizeD2BytesPerEdge = 91

func TestRandomizeD2AllocBudget(t *testing.T) {
	g := powerLawBenchGraph(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := Randomize(g, 2, RandomizeOptions{Rng: newRng(1), SwapFactor: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.M())
	if perEdge > randomizeD2BytesPerEdge {
		t.Fatalf("depth-2 Randomize allocates %.1f B/edge, budget %d", perEdge, randomizeD2BytesPerEdge)
	}
	t.Logf("%.1f B/edge (N=%d, M=%d)", perEdge, g.N(), g.M())
}
