package generate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// replicaTestGraph builds a small connected graph (ring plus chords).
func replicaTestGraph(t *testing.T) *graph.CSR {
	t.Helper()
	const n = 60
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		if err := g.AddEdge(i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for added := 0; added < 40; {
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

// TestRandomizeReplicasDeterministicAcrossWorkers: the replica ensemble
// is a pure function of (baseSeed, n); the worker count must not change
// any replica, and distinct replicas must be distinct graphs.
func TestRandomizeReplicasDeterministicAcrossWorkers(t *testing.T) {
	g := replicaTestGraph(t)
	const reps = 6
	run := func(workers int) []*graph.CSR {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		stats := make([]RewireStats, reps)
		out, err := Replicas(reps, 123, func(i int, rng *rand.Rand) (*graph.CSR, error) {
			out, st, err := Randomize(g, 1, RandomizeOptions{Rng: rng, SwapFactor: 3})
			stats[i] = st
			return out, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != reps || len(stats) != reps {
			t.Fatalf("got %d graphs / %d stats, want %d", len(out), len(stats), reps)
		}
		for i, st := range stats {
			if st.Accepted == 0 {
				t.Fatalf("replica %d accepted no swaps", i)
			}
		}
		return out
	}
	serial, par := run(1), run(8)
	for i := range serial {
		if !serial[i].Equal(par[i]) {
			t.Fatalf("replica %d differs between workers=1 and workers=8", i)
		}
	}
	// Replicas must be independent draws, not copies of each other.
	distinct := false
	for i := 1; i < reps; i++ {
		if !serial[0].Equal(serial[i]) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("all replicas identical — seed splitting is broken")
	}
	// Degree sequences are preserved by 1K-randomizing rewiring.
	want := g.DegreeSequence()
	for i, r := range serial {
		got := r.DegreeSequence()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("replica %d degree sequence diverged at %d", i, k)
			}
		}
	}
}

// TestReplicasErrorIsLowestIndex: failure reporting is deterministic.
func TestReplicasErrorIsLowestIndex(t *testing.T) {
	_, err := Replicas(10, 1, func(i int, rng *rand.Rand) (*graph.CSR, error) {
		if i >= 4 {
			return nil, errAt(i)
		}
		return graph.NewCSR(1), nil
	})
	if err == nil || err.Error() != "replica 4 failed" {
		t.Fatalf("got %v, want replica 4 failed", err)
	}
}

type errAt int

func (e errAt) Error() string { return fmt.Sprintf("replica %d failed", int(e)) }
