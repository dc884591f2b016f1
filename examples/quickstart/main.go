// Quickstart: extract a dK-distribution from a graph, generate random
// graphs matching it at increasing depths d, and watch the metric suite
// converge to the original — the core workflow of the paper in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	// A small AS-like topology: power-law degrees, disassortative,
	// clustered.
	g, err := datasets.Skitter(datasets.SkitterConfig{N: 600, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	orig, err := metrics.Summarize(g, metrics.SummaryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original:   n=%d m=%d k̄=%.2f r=%+.3f C̄=%.3f d̄=%.2f\n",
		orig.N, orig.M, orig.AvgDegree, orig.R, orig.CBar, orig.DBar)

	// dK-randomize at each depth: same dK-distribution, otherwise
	// maximally random. Watch r appear at d≥2 and clustering at d=3.
	for d := 0; d <= 3; d++ {
		rng := rand.New(rand.NewSource(int64(d) + 1))
		random, _, err := generate.Randomize(g, d, generate.RandomizeOptions{Rng: rng})
		if err != nil {
			log.Fatal(err)
		}
		gcc, _ := graph.GiantComponent(random)
		sum, err := metrics.Summarize(gcc, metrics.SummaryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%dK-random:  n=%d m=%d k̄=%.2f r=%+.3f C̄=%.3f d̄=%.2f\n",
			d, sum.N, sum.M, sum.AvgDegree, sum.R, sum.CBar, sum.DBar)
	}

	// Or: extract the profile and build a fresh graph from the
	// distribution alone (no original needed), the 2K pseudograph way.
	profile, err := dk.Extract(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := generate.FromProfile(profile, 2, generate.MethodPseudograph, rand.New(rand.NewSource(99)))
	if err != nil {
		log.Fatal(err)
	}
	q, err := dk.Extract(fresh, 2)
	if err != nil {
		log.Fatal(err)
	}
	d2, err := dk.Distance(profile, q, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fresh 2K pseudograph: n=%d m=%d, D2 distance to target JDD = %.0f\n",
		fresh.N(), fresh.M(), d2)
}
