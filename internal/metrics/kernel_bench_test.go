package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/stats"
)

// ingestedPowerLaw is the giant component of an n-node γ=2 power-law
// graph after a WriteEdgeList/ReadEdgeList round trip, so its nodes are
// numbered by first appearance and the hubs hold low ids, as in any
// graph read from a file.
func ingestedPowerLaw(tb testing.TB, n int) *graph.CSR {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	pl, err := stats.NewPowerLaw(2.0, 1, int(3*math.Sqrt(float64(n))))
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
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		tb.Fatal(err)
	}
	g, _, err = graph.ReadEdgeList(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkSampledDistancesPowerLaw times the 256-source distance
// estimate Summarize uses above AutoSampleThreshold, on an ingested γ=2
// power-law graph of about 50k nodes. One op is one SampledDistances.
func BenchmarkSampledDistancesPowerLaw(b *testing.B) {
	g := ingestedPowerLaw(b, 50000)
	b.ReportAllocs()
	for seed := int64(0); b.Loop(); seed++ {
		SampledDistances(g, AutoSampleSources, rand.New(rand.NewSource(seed)))
	}
}

// BenchmarkTrianglesPowerLaw times one triangle pass (the work behind
// C̄ and S2) on the same ingested power-law graph.
func BenchmarkTrianglesPowerLaw(b *testing.B) {
	g := ingestedPowerLaw(b, 50000)
	b.ReportAllocs()
	for b.Loop() {
		Triangles(g)
	}
}
