package generate

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Replicas runs build n times concurrently on the worker pool — the
// fan-out behind the paper's "average over 100 graphs" ensembles, where
// every replica of a generation or rewiring run is independent. Replica i
// receives its own deterministic rand.Rand seeded with
// parallel.SubSeed(baseSeed, i), and results land in index i of the
// returned slice, so the ensemble is a pure function of (baseSeed, n)
// regardless of worker count. Each builder runs single-threaded (a
// Rewirer is not concurrency-safe); the parallelism is across replicas.
//
// On failure the error of the lowest-indexed failing replica is returned.
func Replicas(n int, baseSeed int64, build func(i int, rng *rand.Rand) (*graph.CSR, error)) ([]*graph.CSR, error) {
	out := make([]*graph.CSR, n)
	err := parallel.ForErr(n, func(i int) error {
		g, err := build(i, rand.New(rand.NewSource(parallel.SubSeed(baseSeed, i))))
		if err != nil {
			return err
		}
		out[i] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
