// exploration: dK-space exploration (Section 4.3 of the paper). All
// 2K-graphs share a joint degree distribution, but metrics the JDD does
// not pin down — clustering, second-order likelihood — can still vary.
// This example measures how much slack d = 2 leaves by steering those
// metrics to their extremes with 2K-preserving rewiring, answering the
// practitioner's question "is d = 2 constraining enough for my study?".
//
//	go run ./examples/exploration
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	g, err := datasets.Skitter(datasets.SkitterConfig{N: 800, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	base := summarize(g)
	fmt.Printf("reference 2K-graph: C̄=%.3f S2=%.4g d̄=%.2f\n\n", base.CBar, base.S2, base.DBar)

	budget := 40 * g.M()
	type result struct {
		name string
		sum  metrics.Summary
	}
	var results []result
	for _, v := range []struct {
		name   string
		metric generate.ExploreMetric
		max    bool
	}{
		{"min C̄", generate.MetricClustering, false},
		{"max C̄", generate.MetricClustering, true},
		{"min S2", generate.MetricS2, false},
		{"max S2", generate.MetricS2, true},
	} {
		res, err := generate.Explore(g, v.metric, generate.ExploreOptions{
			Rng:         rngFor(v.name),
			Maximize:    v.max,
			MaxAttempts: budget,
			Patience:    budget / 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, result{v.name, summarize(res.FinalGraph)})
	}

	fmt.Printf("%-8s %8s %12s %8s %8s\n", "variant", "C̄", "S2", "d̄", "r")
	for _, r := range results {
		fmt.Printf("%-8s %8.3f %12.4g %8.2f %+8.3f\n", r.name, r.sum.CBar, r.sum.S2, r.sum.DBar, r.sum.R)
	}
	fmt.Printf("%-8s %8.3f %12.4g %8.2f %+8.3f\n", "original", base.CBar, base.S2, base.DBar, base.R)

	fmt.Println("\nThe spread between min and max rows is the structural diversity")
	fmt.Println("d = 2 fails to constrain; if it is too wide for your metric of")
	fmt.Println("interest, move to d = 3 (the paper's Table 7 methodology).")
}

func summarize(g *graph.CSR) metrics.Summary {
	gcc, _ := graph.GiantComponent(g)
	sum, err := metrics.Summarize(gcc, metrics.SummaryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return sum
}

func rngFor(name string) *rand.Rand {
	seed := int64(0)
	for _, c := range name {
		seed = seed*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}
