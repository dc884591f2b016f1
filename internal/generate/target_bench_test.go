package generate_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
)

// BenchmarkTarget times dK-targeting rewiring as generate.FromProfile
// runs it, on a Skitter-like input (datasets.Skitter N=1500, seed 1):
// d2 is 2K-targeting 1K-preserving rewiring from a 1K matching, d3 is
// 3K-targeting 2K-preserving rewiring from a 2K matching, each toward
// the input's own profile with TargetRewire's default budget and
// StopAtZero. One op is one TargetRewire run from a fresh seed. Most
// attempts are rejected, by a structural check or by the objective, so
// ns/attempt is the cost of the scored proposal path itself.
func BenchmarkTarget(b *testing.B) {
	src, err := datasets.Skitter(datasets.SkitterConfig{N: 1500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := dk.Extract(src, 3)
	if err != nil {
		b.Fatal(err)
	}
	start1K, err := generate.Matching1K(p.Degrees, generate.Options{Rng: goldenRng(1)})
	if err != nil {
		b.Fatal(err)
	}
	start2K, err := generate.Matching2K(p.Joint, generate.Options{Rng: goldenRng(1)})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		d     int
		start *graph.CSR
	}{{"d2", 2, start1K}, {"d3", 3, start2K}} {
		b.Run(w.name, func(b *testing.B) {
			attempts := 0
			for seed := int64(0); b.Loop(); seed++ {
				res, err := generate.TargetRewire(w.start, p, w.d, generate.TargetOptions{Rng: goldenRng(seed), StopAtZero: true})
				if err != nil {
					b.Fatal(err)
				}
				attempts += res.Stats.Attempts
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
		})
	}
}
