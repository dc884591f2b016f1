package generate

import (
	"math"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// TestScoredStepAllocBudget checks that a scored attempt allocates
// nothing once its Rewirer is set up: 2K targeting (depth 1 with the
// JDD objective), 3K targeting (depth 2 with the census objective) and
// clustering and likelihood exploration each run 20,000 Steps, accepted
// and rejected moves alike, with no heap allocation in at least one of
// three such windows. The first Steps, which build the end index and
// let the objectives' scratch reach its working size, are setup. Depth-0 moves change degrees, and a window
// that outgrows its slack relocates, so 1K targeting is not held to it.
func TestScoredStepAllocBudget(t *testing.T) {
	rng := newRng(5)
	src := powerLawGraph(t, rng, 600)
	p, err := dk.Extract(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	start1K, err := Matching1K(p.Degrees, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	start2K, err := Matching2K(p.Joint, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.CSR
		depth  int
		obj    Objective
		accept Policy
	}{
		{"target_d2", start1K, 1, NewJDDObjective(p.Joint), PolicyMetropolis(0)},
		{"target_d3", start2K, 2, NewCensusObjective(p.Census), PolicyMetropolis(0)},
		{"explore_clustering", src, 2, &ClusteringObjective{}, PolicyMaximize},
		{"explore_likelihood", src, 1, &LikelihoodObjective{}, PolicyMinimize},
	} {
		r, err := NewRewirer(tc.g.Clone(), tc.depth, newRng(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.obj.Init(r.G); err != nil {
			t.Fatal(err)
		}
		r.Obj, r.Accept = tc.obj, tc.accept
		for range 20 * r.G.M() {
			if _, err := r.Step(); err != nil {
				t.Fatal(err)
			}
		}
		before := r.Stats
		// AllocsPerRun counts the mallocs of the whole process, so one
		// allocation by another goroutine would fail a single window.
		// An allocation on the Step path happens in every window, so
		// the minimum over three still catches it.
		allocs := math.Inf(1)
		for range 3 {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				for range 20000 {
					if _, err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}))
		}
		st := r.Stats
		if st.Accepted == before.Accepted || st.Reverted == before.Reverted {
			t.Fatalf("%s: the measured Steps accepted %d and declined %d moves; want both",
				tc.name, st.Accepted-before.Accepted, st.Reverted-before.Reverted)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations over 20,000 scored attempts; want 0", tc.name, allocs)
		}
	}
}
