package metrics

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// testGraph builds a connected pseudo-random graph: a ring (guaranteeing
// connectivity) plus random chords. Deterministic for a given seed.
func testGraph(t *testing.T, n, chords int, seed int64) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for added := 0; added < chords; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		added++
	}
	return g
}

// withWorkers runs fn under a temporary process-wide worker count.
func withWorkers(w int, fn func()) {
	parallel.SetWorkers(w)
	defer parallel.SetWorkers(0)
	fn()
}

// TestBetweennessDeterministicAcrossWorkers is the core determinism
// guarantee of the concurrency layer: workers=1 and workers=8 must
// produce bit-identical betweenness vectors for the same input.
func TestBetweennessDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 400, 300, 11)
	var serial, par []float64
	withWorkers(1, func() { serial = Betweenness(s) })
	withWorkers(8, func() { par = Betweenness(s) })
	if len(serial) != len(par) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("bc[%d]: workers=1 %v != workers=8 %v", i, serial[i], par[i])
		}
	}
}

func TestSampledBetweennessDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 500, 400, 12)
	var serial, par []float64
	withWorkers(1, func() {
		serial = SampledBetweenness(s, 120, rand.New(rand.NewSource(7)))
	})
	withWorkers(8, func() {
		par = SampledBetweenness(s, 120, rand.New(rand.NewSource(7)))
	})
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("sampled bc[%d]: workers=1 %v != workers=8 %v", i, serial[i], par[i])
		}
	}
}

func TestDistancesDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 600, 500, 13)
	var serial, par *DistanceDistribution
	withWorkers(1, func() { serial = Distances(s) })
	withWorkers(8, func() { par = Distances(s) })
	if serial.Unreachable != par.Unreachable || serial.Sources != par.Sources {
		t.Fatalf("headline fields differ: %+v vs %+v", serial, par)
	}
	if len(serial.Count) != len(par.Count) {
		t.Fatalf("histogram lengths differ: %d vs %d", len(serial.Count), len(par.Count))
	}
	for x := range serial.Count {
		if serial.Count[x] != par.Count[x] {
			t.Fatalf("Count[%d]: %d vs %d", x, serial.Count[x], par.Count[x])
		}
	}
}

func TestEdgeBetweennessDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 300, 250, 14)
	var serial, par map[graph.Edge]float64
	withWorkers(1, func() { serial = EdgeBetweenness(s) })
	withWorkers(8, func() { par = EdgeBetweenness(s) })
	if len(serial) != len(par) {
		t.Fatalf("edge count: %d vs %d", len(serial), len(par))
	}
	for e, v := range serial {
		if pv, ok := par[e]; !ok || pv != v {
			t.Fatalf("edge %v: workers=1 %v != workers=8 %v (present=%v)", e, v, pv, ok)
		}
	}
}

func TestDegreeCorrelationDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 400, 300, 15)
	for _, d := range []int{1, 2, 3} {
		var serial, par float64
		withWorkers(1, func() { serial = DegreeCorrelationAtDistance(s, d) })
		withWorkers(8, func() { par = DegreeCorrelationAtDistance(s, d) })
		if serial != par {
			t.Fatalf("d=%d: workers=1 %v != workers=8 %v", d, serial, par)
		}
	}
}

// TestSummarizeDeterministicAcrossWorkers covers the composite path the
// experiment tables use (assortativity + clustering + distances + S/S2).
func TestSummarizeDeterministicAcrossWorkers(t *testing.T) {
	s := testGraph(t, 400, 300, 16)
	var serial, par Summary
	var err1, err2 error
	withWorkers(1, func() { serial, err1 = Summarize(s, SummaryOptions{}) })
	withWorkers(8, func() { par, err2 = Summarize(s, SummaryOptions{}) })
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if serial != par {
		t.Fatalf("summary differs:\nworkers=1: %+v\nworkers=8: %+v", serial, par)
	}
}
