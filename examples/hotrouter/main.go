// hotrouter: the paper's hard case. Router-level (HOT) topologies defeat
// degree-distribution-only generators: 1K-random graphs pull the
// high-degree nodes into the core, while real HOT networks keep them at
// the periphery. This example reproduces that failure and shows the dK
// ladder fixing it: compare where hubs sit and how distances distribute
// as d grows.
//
//	go run ./examples/hotrouter
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro/internal/datasets"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
)

func main() {
	hot, roles, err := datasets.HOT(datasets.PaperScaleHOT(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HOT-like router topology: n=%d m=%d (core=%d gateways=%d access=%d hosts=%d)\n\n",
		hot.N(), hot.M(), len(roles.Core), len(roles.Gateway), len(roles.Access), len(roles.Host))

	report("original", hot)
	for d := 0; d <= 3; d++ {
		rng := rand.New(rand.NewSource(int64(d) + 10))
		random, _, err := generate.Randomize(hot, d, generate.RandomizeOptions{Rng: rng})
		if err != nil {
			log.Fatal(err)
		}
		report(fmt.Sprintf("%dK-random", d), random)
	}
	fmt.Println("\nReading the table: in the original, hubs are access routers at the")
	fmt.Println("periphery (high hub distance ratio). 1K-random drags them into the")
	fmt.Println("core (low ratio, short distances). 2K partially restores the")
	fmt.Println("periphery; 3K locks the structure back in.")
}

func report(name string, g *graph.CSR) {
	gcc, _ := graph.GiantComponent(g)
	sum, err := metrics.Summarize(gcc, metrics.SummaryOptions{SkipS2: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s n=%4d k̄=%.2f r=%+.3f d̄=%5.2f σd=%.2f  hub-ratio=%.2f\n",
		name, sum.N, sum.AvgDegree, sum.R, sum.DBar, sum.SigmaD, hubRatio(gcc))
}

// hubRatio is the mean BFS distance from the five highest-degree nodes to
// everyone else, divided by the overall mean distance: < 1 means hubs in
// the core, ≈ 1 or more means hubs at the periphery.
func hubRatio(s *graph.CSR) float64 {
	n := s.N()
	deg := make([]int, n)
	for i := range deg {
		deg[i] = i
	}
	sort.Slice(deg, func(a, b int) bool { return s.Degree(deg[a]) > s.Degree(deg[b]) })
	top := 5
	if top > n {
		top = n
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var sum, cnt float64
	for _, h := range deg[:top] {
		graph.BFS(s, h, dist, queue)
		for _, d := range dist {
			if d > 0 {
				sum += float64(d)
				cnt++
			}
		}
	}
	overall := metrics.Distances(s).Mean()
	if overall == 0 || cnt == 0 {
		return 0
	}
	return (sum / cnt) / overall
}
