package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// namedGraph pairs a column label with a graph variant (always the GCC).
type namedGraph struct {
	name string
	g    *graph.CSR
}

// gccOf returns the giant component of g.
func gccOf(g *graph.CSR) *graph.CSR {
	gcc, _ := graph.GiantComponent(g)
	return gcc
}

// variants2K builds one GCC per 2K construction technique (Fig. 5a/5b).
// The five constructions are independent (per-method RNG streams), so
// they run concurrently on the worker pool.
func (l *Lab) variants2K(ref *graph.CSR, p *dk.Profile, purpose int64) ([]namedGraph, error) {
	out := make([]namedGraph, len(twoKMethods))
	err := parallel.ForErr(len(twoKMethods), func(mi int) error {
		method := twoKMethods[mi]
		g, err := generate2K(ref, p, method, l.Rng(purpose+int64(mi)))
		if err != nil {
			return fmt.Errorf("%s: %w", method, err)
		}
		out[mi] = namedGraph{method, gccOf(g)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// variantsDK builds the 0K..3K dK-random GCCs of a reference
// (Figs. 6, 8, 9), one rewiring run per depth, concurrently.
func (l *Lab) variantsDK(ref *graph.CSR, purpose int64) ([]namedGraph, error) {
	out := make([]namedGraph, 4)
	err := parallel.ForErr(4, func(d int) error {
		g, err := generateDKRandom(ref, d, l.Rng(purpose+int64(d)))
		if err != nil {
			return fmt.Errorf("depth %d: %w", d, err)
		}
		out[d] = namedGraph{fmt.Sprintf("%dK-random", d), gccOf(g)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// distanceSeries renders a hop-distance PDF series for graph variants
// plus the original — the shape plotted in Figures 5b, 5c, 6a and 8.
func distanceSeries(id, title string, variants []namedGraph, orig *graph.CSR) *Series {
	variants = append(variants, namedGraph{"original", gccOf(orig)})
	pdfs := make([][]float64, len(variants))
	// Per-variant all-pairs BFS sweeps are independent; fan them out on
	// top of the already-parallel metrics.Distances.
	parallel.For(len(variants), func(i int) {
		pdfs[i] = metrics.Distances(variants[i].g).PDF()
	})
	maxLen := 0
	for i := range pdfs {
		if len(pdfs[i]) > maxLen {
			maxLen = len(pdfs[i])
		}
	}
	s := &Series{
		ID:     id,
		Title:  title,
		XLabel: "distance (hops)",
	}
	for _, v := range variants {
		s.Columns = append(s.Columns, v.name)
	}
	for x := 1; x < maxLen; x++ {
		row := make([]float64, len(variants))
		for i := range variants {
			if x < len(pdfs[i]) {
				row[i] = pdfs[i][x]
			} // else zero: no pairs at this distance
		}
		s.X = append(s.X, float64(x))
		s.Y = append(s.Y, row)
	}
	return s
}

// degreeBins returns geometric degree-bin lower bounds covering maxDeg:
// 1, 2, 4, 8, ... — the log-x axis of the paper's C(k) and betweenness
// plots.
func degreeBins(maxDeg int) []int {
	var bins []int
	for b := 1; b <= maxDeg; b *= 2 {
		bins = append(bins, b)
	}
	return bins
}

// binnedByDegree averages per-node values into geometric degree bins,
// weighting every node equally; returns bin lower bound → mean.
func binnedByDegree(s *graph.CSR, values []float64, restrict func(deg int) bool) map[int]float64 {
	sums := make(map[int]float64)
	cnts := make(map[int]int)
	for v, x := range values {
		d := s.Degree(v)
		if restrict != nil && !restrict(d) {
			continue
		}
		b := 1
		for b*2 <= d {
			b *= 2
		}
		sums[b] += x
		cnts[b]++
	}
	out := make(map[int]float64, len(sums))
	for b := range sums {
		out[b] = sums[b] / float64(cnts[b])
	}
	return out
}

// perDegreeSeries builds a degree-binned series across variants from a
// per-node metric extractor. Variants are processed concurrently; each
// gets its own index-derived rand.Rand (rngAt), so sampled extractors
// like betweennessPerNode stay deterministic at any worker count.
func perDegreeSeries(id, title, what string, variants []namedGraph, orig *graph.CSR,
	perNode func(s *graph.CSR, rng *rand.Rand) []float64,
	restrict func(deg int) bool, rngAt func(i int) *rand.Rand) *Series {
	variants = append(variants, namedGraph{"original", gccOf(orig)})
	binned := make([]map[int]float64, len(variants))
	maxDegs := make([]int, len(variants))
	parallel.For(len(variants), func(i int) {
		g := variants[i].g
		binned[i] = binnedByDegree(g, perNode(g, rngAt(i)), restrict)
		maxDegs[i] = g.MaxDegree()
	})
	maxDeg := 0
	for _, d := range maxDegs {
		if d > maxDeg {
			maxDeg = d
		}
	}
	s := &Series{ID: id, Title: title, XLabel: "degree (bin lower bound)"}
	for _, v := range variants {
		s.Columns = append(s.Columns, v.name)
	}
	for _, b := range degreeBins(maxDeg) {
		row := make([]float64, len(variants))
		any := false
		for i := range variants {
			if val, ok := binned[i][b]; ok {
				row[i] = val
				any = true
			} else {
				row[i] = math.NaN()
			}
		}
		if any {
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, row)
		}
	}
	_ = what
	return s
}

// rngsFrom returns a per-variant RNG factory: variant i draws from the
// deterministic purpose id purpose+i.
func (l *Lab) rngsFrom(purpose int64) func(i int) *rand.Rand {
	return func(i int) *rand.Rand { return l.Rng(purpose + int64(i)) }
}

func clusteringPerNode(s *graph.CSR, _ *rand.Rand) []float64 {
	return metrics.LocalClustering(s)
}

// betweennessPerNode returns normalized betweenness, sampling sources on
// larger graphs to keep figure regeneration fast.
func betweennessPerNode(s *graph.CSR, rng *rand.Rand) []float64 {
	const exactLimit = 2500
	var bc []float64
	if s.N() <= exactLimit {
		bc = metrics.Betweenness(s)
	} else {
		bc = metrics.SampledBetweenness(s, exactLimit, rng)
	}
	norm := float64(s.N()) * float64(s.N()-1) / 2
	for i := range bc {
		bc[i] /= norm
	}
	return bc
}

// Fig5a reproduces Figure 5(a): clustering C(k) of the skitter-like graph
// under the five 2K-construction techniques.
func (l *Lab) Fig5a() (*Series, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	p, err := l.SkitterProfile()
	if err != nil {
		return nil, err
	}
	vars, err := l.variants2K(sk, p, 5100)
	if err != nil {
		return nil, err
	}
	return perDegreeSeries("fig5a", "Clustering C(k) in skitter-like graphs for 2K algorithms",
		"clustering", vars, sk, clusteringPerNode, func(d int) bool { return d >= 2 }, l.rngsFrom(5190)), nil
}

// Fig5b reproduces Figure 5(b): the distance distribution of the HOT
// graph under the five 2K-construction techniques.
func (l *Lab) Fig5b() (*Series, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	p, err := l.HOTProfile()
	if err != nil {
		return nil, err
	}
	vars, err := l.variants2K(hot, p, 5200)
	if err != nil {
		return nil, err
	}
	return distanceSeries("fig5b", "Distance distribution in HOT for 2K algorithms", vars, hot), nil
}

// Fig5c reproduces Figure 5(c): the distance distribution of the HOT
// graph under 3K-randomizing and 3K-targeting rewiring.
func (l *Lab) Fig5c() (*Series, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	p, err := l.HOTProfile()
	if err != nil {
		return nil, err
	}
	methods := []string{"3K-randomizing", "3K-targeting"}
	vars := make([]namedGraph, len(methods))
	err = parallel.ForErr(len(methods), func(mi int) error {
		g, err := generate3K(hot, p, methods[mi], l.Rng(5300+int64(mi)))
		if err != nil {
			return err
		}
		vars[mi] = namedGraph{methods[mi], gccOf(g)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return distanceSeries("fig5c", "Distance distribution in HOT for 3K algorithms", vars, hot), nil
}

// Fig6a reproduces Figure 6(a): distance distributions of dK-random
// graphs versus the skitter-like original.
func (l *Lab) Fig6a() (*Series, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(sk, 6100)
	if err != nil {
		return nil, err
	}
	return distanceSeries("fig6a", "Distance distribution: dK-random vs skitter-like", vars, sk), nil
}

// Fig6b reproduces Figure 6(b): normalized node betweenness versus degree
// for dK-random graphs and the skitter-like original.
func (l *Lab) Fig6b() (*Series, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(sk, 6200)
	if err != nil {
		return nil, err
	}
	return perDegreeSeries("fig6b", "Normalized betweenness vs degree: dK-random vs skitter-like",
		"betweenness", vars, sk, betweennessPerNode, nil, l.rngsFrom(6290)), nil
}

// Fig6c reproduces Figure 6(c): clustering C(k) for dK-random graphs and
// the skitter-like original.
func (l *Lab) Fig6c() (*Series, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(sk, 6300)
	if err != nil {
		return nil, err
	}
	return perDegreeSeries("fig6c", "Clustering C(k): dK-random vs skitter-like",
		"clustering", vars, sk, clusteringPerNode, func(d int) bool { return d >= 2 }, l.rngsFrom(6390)), nil
}

// Fig7 reproduces Figure 7: C(k) with clustering maximized and minimized
// by 2K-preserving exploration, versus 2K-random and the original.
func (l *Lab) Fig7() (*Series, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	budget := 40 * sk.M()
	climbs := []struct {
		name string
		max  bool
	}{{"2K max-C̄", true}, {"2K min-C̄", false}}
	vars := make([]namedGraph, len(climbs))
	err = parallel.ForErr(len(climbs), func(vi int) error {
		res, err := exploreClustering(sk, climbs[vi].max, budget, l.Rng(7000+int64(vi)))
		if err != nil {
			return err
		}
		vars[vi] = namedGraph{climbs[vi].name, gccOf(res)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rnd, err := generateDKRandom(sk, 2, l.Rng(7090))
	if err != nil {
		return nil, err
	}
	vars = append(vars, namedGraph{"2K-random", gccOf(rnd)})
	return perDegreeSeries("fig7", "Varying clustering in 2K-graphs (skitter-like)",
		"clustering", vars, sk, clusteringPerNode, func(d int) bool { return d >= 2 }, l.rngsFrom(7099)), nil
}

// Fig8 reproduces Figure 8: distance distributions of dK-random graphs
// versus the HOT original.
func (l *Lab) Fig8() (*Series, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(hot, 8100)
	if err != nil {
		return nil, err
	}
	return distanceSeries("fig8", "Distance distribution: dK-random vs HOT", vars, hot), nil
}

// Fig9 reproduces Figure 9: betweenness versus degree for dK-random
// graphs and the HOT original.
func (l *Lab) Fig9() (*Series, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(hot, 9100)
	if err != nil {
		return nil, err
	}
	return perDegreeSeries("fig9", "Normalized betweenness vs degree: dK-random vs HOT",
		"betweenness", vars, hot, betweennessPerNode, nil, l.rngsFrom(9190)), nil
}

// Fig3 quantifies what the paper's Figure 3 visualizations show: where
// the hubs sit. For each dK-random variant (and the original) it reports
// the mean closeness ratio of the top-degree nodes — the average
// distance from the 5 highest-degree nodes to everything else, divided by
// the graph's mean pairwise distance. Ratios well below 1 mean hubs in
// the core (0K/1K-random); ratios near or above 1 mean hubs pushed to the
// periphery, the HOT signature that emerges at 2K and locks in at 3K.
func (l *Lab) Fig3() (*Table, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	vars, err := l.variantsDK(hot, 3100)
	if err != nil {
		return nil, err
	}
	vars = append(vars, namedGraph{"original", gccOf(hot)})
	rows := make([][]string, 0, len(vars))
	for _, v := range vars {
		ratio, ecc := hubPlacement(v.g)
		rows = append(rows, []string{v.name, f(ratio), f(ecc)})
	}
	return &Table{
		ID:     "fig3",
		Title:  "Hub placement in dK-random vs HOT (closeness ratio of top-5 hubs; >1 = peripheral)",
		Header: []string{"graph", "hub distance ratio", "mean hub eccentricity"},
		Rows:   rows,
	}, nil
}

// hubPlacement returns (mean distance from top-5-degree nodes to all
// nodes) / (overall mean distance), and the hubs' mean eccentricity.
func hubPlacement(s *graph.CSR) (ratio, meanEcc float64) {
	n := s.N()
	type nd struct{ id, deg int }
	nodes := make([]nd, n)
	for i := range nodes {
		nodes[i] = nd{i, s.Degree(i)}
	}
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].deg > nodes[b].deg })
	top := 5
	if top > n {
		top = n
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var hubSum, hubCnt float64
	for _, h := range nodes[:top] {
		graph.BFS(s, h.id, dist, queue)
		ecc := 0
		for _, d := range dist {
			if d > 0 {
				hubSum += float64(d)
				hubCnt++
				if int(d) > ecc {
					ecc = int(d)
				}
			}
		}
		meanEcc += float64(ecc)
	}
	meanEcc /= float64(top)
	overall := metrics.SampledDistances(s, min(n, 400), rand.New(rand.NewSource(1))).Mean()
	if overall == 0 || hubCnt == 0 {
		return 0, meanEcc
	}
	return (hubSum / hubCnt) / overall, meanEcc
}

// exploreClustering is a tiny wrapper used by Fig7 and Table7.
func exploreClustering(g *graph.CSR, maximize bool, budget int, rng *rand.Rand) (*graph.CSR, error) {
	res, err := exploreMetricGraph(g, maximize, budget, rng)
	if err != nil {
		return nil, err
	}
	return res, nil
}
