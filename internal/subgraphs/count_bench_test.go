package subgraphs_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/subgraphs"
)

// BenchmarkCountPowerLaw times the full wedge/triangle census on the
// giant component of a γ=2 power-law graph of about 45k nodes: hundreds
// of degree classes, hubs past the bitset threshold, and a census of
// millions of classes. One op is one Count.
func BenchmarkCountPowerLaw(b *testing.B) {
	const n = 45000
	rng := rand.New(rand.NewSource(2))
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(n)))
	if err != nil {
		b.Fatal(err)
	}
	seq := pl.DegreeSequence(rng, n)
	for !dk.Graphical(seq) {
		seq = pl.DegreeSequence(rng, n)
	}
	g, err := generate.Matching1K(dk.NewDegreeDist(seq), generate.Options{Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	g, _ = graph.GiantComponent(g)
	b.ReportAllocs()
	var keys int
	for b.Loop() {
		c := subgraphs.Count(g)
		keys = len(c.Wedges) + len(c.Triangles)
	}
	b.ReportMetric(float64(keys), "keys")
}
