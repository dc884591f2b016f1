package experiments

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// exploreMetricGraph runs clustering exploration and returns the final
// graph (helper shared with figures.go).
func exploreMetricGraph(g *graph.CSR, maximize bool, budget int, rng *rand.Rand) (*graph.CSR, error) {
	res, err := generate.Explore(g, generate.MetricClustering, generate.ExploreOptions{
		Rng:         rng,
		Maximize:    maximize,
		MaxAttempts: budget,
		Patience:    budget / 2,
	})
	if err != nil {
		return nil, err
	}
	return res.FinalGraph, nil
}

// Table1 verifies the maximum-entropy column of the paper's Table 1:
//
//   - 0K-random graphs have Poisson degree distributions
//     P_0K(k) = e^{−k̄}·k̄^k/k!;
//   - 1K-random graphs have the uncorrelated joint degree distribution
//     P_1K(k1,k2) = k1·P(k1)·k2·P(k2)/k̄².
//
// The table reports empirical-vs-analytic errors: the KS distance of the
// 0K degree distribution from Poisson, and the mean relative error of the
// realized JDD against the maximum-entropy form over the most populous
// classes.
func (l *Lab) Table1() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	p, err := l.SkitterProfile()
	if err != nil {
		return nil, err
	}

	// --- 0K-random degree distribution vs Poisson ---
	rng := l.Rng(100)
	kbar := p.AvgDegree
	hist := stats.NewIntHistogram()
	for s := 0; s < l.Cfg.Seeds; s++ {
		g, err := generate.Stochastic0K(p.N, kbar, generate.Options{Rng: rng})
		if err != nil {
			return nil, err
		}
		for _, d := range g.DegreeSequence() {
			hist.Add(d)
		}
	}
	poisson := stats.NewIntHistogram()
	scale := hist.Total()
	for k := 0; k < 4*int(kbar)+20; k++ {
		poisson.AddN(k, int(stats.PoissonPMF(kbar, k)*float64(scale)+0.5))
	}
	ksPoisson := stats.KSDistance(hist, poisson)

	// --- 1K-random JDD vs the uncorrelated maximum-entropy form ---
	// The analytic form P_1K(k1,k2) = k1P(k1)·k2P(k2)/k̄² holds exactly
	// for the configuration-model *pseudograph* (the paper's footnote 4);
	// verify it there by raw stub pairing, averaging over seeds.
	pseudo := make(map[dk.DegPair]float64)
	var stubs []int
	for k, n := range p.Degrees.Count {
		for i := 0; i < k*n; i++ {
			stubs = append(stubs, k)
		}
	}
	sort.Ints(stubs)
	rng2 := l.Rng(110)
	trials := 4 * l.Cfg.Seeds
	for t := 0; t < trials; t++ {
		rng2.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		for i := 0; i+1 < len(stubs); i += 2 {
			pseudo[dk.NewDegPair(stubs[i], stubs[i+1])]++
		}
	}
	m := float64(len(stubs) / 2)
	endP := func(k int) float64 { // P̃(k): probability an edge end has degree k
		return float64(k) * p.Degrees.P(k) / p.AvgDegree
	}
	expected := func(pr dk.DegPair) float64 {
		e := m * endP(pr.K1) * endP(pr.K2)
		if pr.K1 != pr.K2 {
			e *= 2 // unordered pair
		}
		return e
	}
	type cls struct {
		pair dk.DegPair
		got  float64
	}
	var top []cls
	for pr, c := range pseudo {
		top = append(top, cls{pr, c / float64(trials)})
	}
	sort.SliceStable(top, func(i, j int) bool {
		ei, ej := expected(top[i].pair), expected(top[j].pair)
		if ei != ej {
			return ei > ej
		}
		return pairLess(top[i].pair, top[j].pair)
	})
	if len(top) > 20 {
		top = top[:20]
	}
	var relErr float64
	for _, c := range top {
		e := expected(c.pair)
		relErr += math.Abs(c.got-e) / e
	}
	relErr /= float64(len(top))

	// The simple-graph deviation from the pseudograph form (footnote 4):
	// structural constraints deplete low–low classes and enrich
	// (1, hub) classes, driving r of simple 1K-random graphs negative.
	oneK, err := generateDKRandom(sk, 1, l.Rng(120))
	if err != nil {
		return nil, err
	}
	rRandom := metrics.Assortativity(gccOf(oneK))
	rOriginal := metrics.Assortativity(gccOf(sk))

	return &Table{
		ID:    "table1",
		Title: "Maximum-entropy forms of (d+1)K-distributions in dK-random graphs",
		Header: []string{
			"check", "value", "maximum-entropy reference",
		},
		Rows: [][]string{
			{"KS(0K-random degrees, Poisson)", f(ksPoisson), "→ 0"},
			{"mean rel. err of pseudograph 1K JDD vs k1P(k1)k2P(k2)/k̄²", f(relErr), "→ 0 (exact for pseudographs)"},
			{"r of simple 1K-random", f(rRandom), "pseudograph form 0; simple-graph constraints drive it negative (footnote 4, cf. Table 6)"},
			{"r of original", f(rOriginal), "(disassortative input)"},
		},
	}, nil
}

func pairLess(a, b dk.DegPair) bool {
	if a.K1 != b.K1 {
		return a.K1 < b.K1
	}
	return a.K2 < b.K2
}
