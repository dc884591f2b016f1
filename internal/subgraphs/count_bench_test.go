package subgraphs_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/subgraphs"
)

// powerLawGraph is the giant component of a γ=2 power-law graph of about
// 45k nodes: hundreds of degree classes, hubs past the bitset threshold,
// and a census of about 1.45 M classes.
func powerLawGraph(tb testing.TB) *graph.CSR {
	const n = 45000
	rng := rand.New(rand.NewSource(2))
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(n)))
	if err != nil {
		tb.Fatal(err)
	}
	seq := pl.DegreeSequence(rng, n)
	for !dk.Graphical(seq) {
		seq = pl.DegreeSequence(rng, n)
	}
	g, err := generate.Matching1K(dk.NewDegreeDist(seq), generate.Options{Rng: rng})
	if err != nil {
		tb.Fatal(err)
	}
	g, _ = graph.GiantComponent(g)
	return g
}

// BenchmarkCountPowerLaw times the full wedge/triangle census on
// powerLawGraph. One op is one Count; B/key is the bytes it allocates
// per census class.
func BenchmarkCountPowerLaw(b *testing.B) {
	g := powerLawGraph(b)
	b.ReportAllocs()
	var keys, ops int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		c := subgraphs.Count(g)
		keys = len(c.Wedges) + len(c.Triangles)
		ops++
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(keys), "keys")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(ops*keys), "B/key")
}

// TestCensusEntrySize pins the 24-byte census entry: three int32
// degrees and an int64 count, with no padding.
func TestCensusEntrySize(t *testing.T) {
	if w, tr := unsafe.Sizeof(subgraphs.WedgeCount{}), unsafe.Sizeof(subgraphs.TriangleCount{}); w != 24 || tr != 24 {
		t.Errorf("census entries take %d (wedge) and %d (triangle) bytes, want 24", w, tr)
	}
}

// TestCountAllocBudget bounds what Count allocates per census class on
// powerLawGraph, measured as the TotalAlloc delta of one Count. With
// K = 1.45 M keys (T = 69 k of them triangles):
//
//	B/key ≈ (24·W + 24·T″ + tables) / K ≈ 25.2 + 2.4 + 3.2 = 30.8   (one worker)
//	B/key ≈ (24·W + 48·T  + tables) / K ≈ 25.2 + 2.3 + 3.5 = 31.0   (two workers)
//
// where W = 1.52 M is the wedge array's capacity, the sum of the
// per-class bounds (10 % above the 1.38 M wedge classes); T″ the
// triangle capacities the one-worker doubling slice allocates on its
// way to its final 78 k (under twice that); 48·T the per-class triangle
// copies of the parallel path and the array they are concatenated
// into; and tables the hub bitsets, per-node arrays and, per worker,
// the packed planes and stamp (0.4 B/key for each worker after the
// first). The test counts at one and at two workers, so what it reads
// does not depend on the machine's core count. The budget is 1.3 × the
// 30.9 measured before the planes were packed: 40 B/key. 32-byte
// entries with a slot log read 51.5.
func TestCountAllocBudget(t *testing.T) {
	const budget = 40.0 // B/key
	g := powerLawGraph(t)
	for _, w := range []int{1, 2} {
		parallel.SetWorkers(w)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := subgraphs.Count(g)
		runtime.ReadMemStats(&after)
		parallel.SetWorkers(0)
		keys := len(c.Wedges) + len(c.Triangles)
		if perKey := float64(after.TotalAlloc-before.TotalAlloc) / float64(keys); perKey > budget {
			t.Errorf("Count at %d workers allocated %.1f B per census class (%d classes), budget %.0f", w, perKey, keys, budget)
		}
	}
}
