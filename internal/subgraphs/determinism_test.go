package subgraphs_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/subgraphs"
)

// TestCountDeterministicAcrossWorkers checks that the class-parallel
// census is byte-identical at any worker count: the same classes in the
// same order, and the wedge array at the same capacity. The cutoff is
// lowered to zero so that the Skitter graph, far below it, takes the
// parallel path too.
func TestCountDeterministicAcrossWorkers(t *testing.T) {
	sk, err := datasets.Skitter(datasets.SkitterConfig{N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.CSR{powerLawGraph(t), sk} {
		var serial *subgraphs.Census
		for _, w := range []int{1, 2, 8} {
			parallel.SetWorkers(w)
			var c *subgraphs.Census
			subgraphs.WithParallelPairs(0, func() { c = subgraphs.Count(g) })
			parallel.SetWorkers(0)
			if serial == nil {
				serial = c
				continue
			}
			if !c.Equal(serial) || cap(c.Wedges) != cap(serial.Wedges) {
				t.Errorf("n=%d: workers=%d census (%d wedge classes, cap %d, %d triangle classes) differs from workers=1 (%d, cap %d, %d)",
					g.N(), w, len(c.Wedges), cap(c.Wedges), len(c.Triangles), len(serial.Wedges), cap(serial.Wedges), len(serial.Triangles))
			}
		}
	}
}
