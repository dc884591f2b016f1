// astopo: the AS-topology workflow the paper's introduction motivates —
// take a measured AS graph (here the synthetic skitter-like stand-in),
// extract its joint degree distribution, rescale it to a different
// network size (the paper's §6 future-work feature), and generate
// ensembles of "realistic" topologies at the new size for protocol
// simulation.
//
//	go run ./examples/astopo
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
	// The "measured" AS topology.
	measured, err := datasets.Skitter(datasets.SkitterConfig{N: 1000, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	profile, err := dk.Extract(measured, 2)
	if err != nil {
		log.Fatal(err)
	}
	origSum, err := metrics.Summarize(measured.Static(), metrics.SummaryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("measured AS graph: n=%d m=%d k̄=%.2f r=%+.3f C̄=%.3f\n",
		origSum.N, origSum.M, origSum.AvgDegree, origSum.R, origSum.CBar)

	// Rescale the 2K-distribution to half and double the network size.
	for _, targetN := range []int{500, 2000} {
		rescaled, err := dk.Rescale2K(profile.Joint, targetN)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nrescaled JDD to ~%d nodes (%d edge classes, %d edges)\n",
			targetN, len(rescaled.Count), rescaled.M)

		// Generate a small ensemble at the new size.
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			res, err := generateFromJDD(rescaled, rng)
			if err != nil {
				log.Fatal(err)
			}
			gcc, _ := graph.GiantComponent(res)
			sum, err := metrics.Summarize(gcc.Static(), metrics.SummaryOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  ensemble[%d]: n=%d m=%d k̄=%.2f r=%+.3f C̄=%.3f d̄=%.2f\n",
				seed, sum.N, sum.M, sum.AvgDegree, sum.R, sum.CBar, sum.DBar)
		}
	}
}

// generateFromJDD builds a 2K graph from a (rescaled) JDD alone, using
// the profile-based API.
func generateFromJDD(jdd *dk.JDD, rng *rand.Rand) (*graph.CSR, error) {
	dd, err := jdd.DegreeDist()
	if err != nil {
		return nil, err
	}
	p := &dk.Profile{
		D:         2,
		N:         dd.N,
		M:         jdd.M,
		AvgDegree: dd.AvgDegree(),
		Degrees:   dd,
		Joint:     jdd,
	}
	return generate.FromProfile(p, 2, generate.MethodPseudograph, rng)
}
