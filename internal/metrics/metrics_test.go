package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func build(t testing.TB, n int, edges [][2]int) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// paw: triangle {0,1,2} + pendant 3 on node 2.
func paw(t testing.TB) *graph.CSR {
	return build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func star(t testing.TB, leaves int) *graph.CSR {
	g := graph.NewCSR(leaves + 1)
	for i := 1; i <= leaves; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func petersen(t testing.TB) *graph.CSR {
	// Outer 5-cycle 0..4, inner pentagram 5..9, spokes i—i+5.
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5},
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
	}
	return build(t, 10, edges)
}

func connectedRandom(rng *rand.Rand, n, extra int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			panic(err)
		}
	}
	if cap := n*(n-1)/2 - g.M(); extra > cap {
		extra = cap
	}
	for added := 0; added < extra; {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
		added++
	}
	return g
}

func TestTrianglesPaw(t *testing.T) {
	ts := Triangles(paw(t))
	if ts.Total != 1 {
		t.Fatalf("Total = %d, want 1", ts.Total)
	}
	want := []int64{1, 1, 1, 0}
	for v, w := range want {
		if ts.PerNode[v] != w {
			t.Errorf("PerNode[%d] = %d, want %d", v, ts.PerNode[v], w)
		}
	}
	// Degrees 2,2,3: products 2·2 + 2·3 + 2·3 = 16.
	if ts.SumProds != 16 {
		t.Errorf("SumProds = %v, want 16", ts.SumProds)
	}
}

func TestTrianglesPetersen(t *testing.T) {
	ts := Triangles(petersen(t))
	if ts.Total != 0 {
		t.Errorf("Petersen graph has %d triangles, want 0 (girth 5)", ts.Total)
	}
}

func TestLocalClusteringPaw(t *testing.T) {
	cl := LocalClustering(paw(t))
	want := []float64{1, 1, 1.0 / 3, 0}
	for v := range want {
		if math.Abs(cl[v]-want[v]) > 1e-12 {
			t.Errorf("c(%d) = %v, want %v", v, cl[v], want[v])
		}
	}
	// C̄ over degree>=2 nodes: (1 + 1 + 1/3)/3.
	if got, w := MeanClustering(paw(t)), (1+1+1.0/3)/3; math.Abs(got-w) > 1e-12 {
		t.Errorf("CBar = %v, want %v", got, w)
	}
}

func TestClusteringByDegree(t *testing.T) {
	ck := ClusteringByDegree(paw(t))
	if math.Abs(ck[2]-1) > 1e-12 {
		t.Errorf("C(2) = %v, want 1", ck[2])
	}
	if math.Abs(ck[3]-1.0/3) > 1e-12 {
		t.Errorf("C(3) = %v, want 1/3", ck[3])
	}
	if _, ok := ck[1]; ok {
		t.Error("C(1) should not be present")
	}
}

func TestGlobalTransitivity(t *testing.T) {
	// Complete graph: transitivity 1.
	k4 := build(t, 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if got := GlobalTransitivity(k4); math.Abs(got-1) > 1e-12 {
		t.Errorf("K4 transitivity = %v, want 1", got)
	}
	if got := GlobalTransitivity(star(t, 5)); got != 0 {
		t.Errorf("star transitivity = %v, want 0", got)
	}
}

func TestAssortativityStar(t *testing.T) {
	// Stars are maximally disassortative: r = -1.
	got := Assortativity(star(t, 6))
	if math.Abs(got+1) > 1e-9 {
		t.Errorf("star r = %v, want -1", got)
	}
}

func TestAssortativityRegular(t *testing.T) {
	// Regular graphs have zero degree variance at edge ends.
	if got := Assortativity(petersen(t)); got != 0 {
		t.Errorf("Petersen r = %v, want 0", got)
	}
	if got := Assortativity(graph.NewCSR(5)); got != 0 {
		t.Errorf("empty r = %v, want 0", got)
	}
}

func TestAssortativityRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := connectedRandom(rng, 5+rng.Intn(40), rng.Intn(60))
		r := Assortativity(s)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLikelihoodS(t *testing.T) {
	// paw: edges (0,1):2·2, (1,2):2·3, (0,2):2·3, (2,3):3·1 → 4+6+6+3 = 19.
	if got := LikelihoodS(paw(t)); got != 19 {
		t.Errorf("S = %v, want 19", got)
	}
}

func TestS2Paw(t *testing.T) {
	// Open wedges of the paw: (0,2,3) ends deg 2 and 1 → 2; (1,2,3) → 2.
	// S2 = 4.
	if got := S2(paw(t)); got != 4 {
		t.Errorf("S2 = %v, want 4", got)
	}
}

// bruteS2 enumerates all open wedges directly.
func bruteS2(s *graph.CSR) float64 {
	var sum float64
	for c := 0; c < s.N(); c++ {
		nb := s.Neighbors(c)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if !s.HasEdge(int(nb[i]), int(nb[j])) {
					sum += float64(s.Degree(int(nb[i]))) * float64(s.Degree(int(nb[j])))
				}
			}
		}
	}
	return sum
}

func TestS2MatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := connectedRandom(rng, 5+rng.Intn(30), rng.Intn(80))
		return math.Abs(S2(s)-bruteS2(s)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDistancesPath(t *testing.T) {
	// Path 0-1-2-3: ordered pairs at distance 1: 6, distance 2: 4, 3: 2.
	s := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	dd := Distances(s)
	if dd.Count[1] != 6 || dd.Count[2] != 4 || dd.Count[3] != 2 {
		t.Errorf("counts = %v, want [_ 6 4 2]", dd.Count)
	}
	wantMean := (6.0 + 8 + 6) / 12
	if math.Abs(dd.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", dd.Mean(), wantMean)
	}
	if dd.MaxDistance() != 3 {
		t.Errorf("MaxDistance = %d, want 3", dd.MaxDistance())
	}
	pdf := dd.PDF()
	var total float64
	for _, p := range pdf {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("PDF sums to %v", total)
	}
}

func TestDistancesDisconnected(t *testing.T) {
	s := build(t, 4, [][2]int{{0, 1}, {2, 3}})
	dd := Distances(s)
	if dd.Unreachable != 8 { // each node cannot reach 2 others
		t.Errorf("Unreachable = %d, want 8", dd.Unreachable)
	}
	if dd.Count[1] != 4 {
		t.Errorf("Count[1] = %d, want 4", dd.Count[1])
	}
}

func TestSampledDistancesUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := connectedRandom(rng, 300, 600)
	exact := Distances(s)
	sampled := SampledDistances(s, 120, rng)
	if sampled.Sources != 120 {
		t.Fatalf("Sources = %d, want 120", sampled.Sources)
	}
	if math.Abs(sampled.Mean()-exact.Mean()) > 0.15 {
		t.Errorf("sampled mean %v vs exact %v", sampled.Mean(), exact.Mean())
	}
	// sources >= n falls back to exact.
	full := SampledDistances(s, 1000, rng)
	if full.Sources != s.N() {
		t.Errorf("full sampling Sources = %d, want %d", full.Sources, s.N())
	}
}

func TestSampledDistancesNonPositiveSources(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := connectedRandom(rng, 40, 80)
	for _, sources := range []int{0, -3} {
		dd := SampledDistances(s, sources, rng)
		if dd.Sources != 0 || dd.TotalPairs() != 0 || dd.Unreachable != 0 {
			t.Errorf("sources=%d: got Sources=%d pairs=%d unreachable=%d, want empty distribution",
				sources, dd.Sources, dd.TotalPairs(), dd.Unreachable)
		}
		if dd.Mean() != 0 || dd.StdDev() != 0 || dd.MaxDistance() != 0 {
			t.Errorf("sources=%d: empty distribution has nonzero scalars", sources)
		}
	}
	// The guard must not consume RNG state: a nil rng is never touched.
	if dd := SampledDistances(s, 0, nil); dd.Sources != 0 {
		t.Error("sources=0 with nil rng should return the empty distribution")
	}
}

func TestPartialPermDistinctAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k, trials = 50, 12, 4000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		got := partialPerm(rng, n, k)
		if len(got) != k {
			t.Fatalf("len = %d, want %d", len(got), k)
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("value %d outside [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d in %v", v, got)
			}
			seen[v] = true
			counts[v]++
		}
	}
	// Each node appears with probability k/n per trial; a loose 3-sigma
	// band catches gross bias without flaking.
	want := float64(trials) * float64(k) / float64(n)
	sigma := math.Sqrt(want * (1 - float64(k)/float64(n)))
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 4*sigma {
			t.Errorf("node %d drawn %d times, want ≈ %.0f (±%.0f)", v, c, want, 4*sigma)
		}
	}
}

// bruteBetweenness computes betweenness by explicit shortest-path
// enumeration (BFS shortest-path DAG counting per pair).
func bruteBetweenness(s *graph.CSR) []float64 {
	n := s.N()
	bc := make([]float64, n)
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	// count paths s->t through v: sigma_st(v) = sigma_sv * sigma_vt if
	// d(s,v)+d(v,t)=d(s,t).
	sigma := make([][]float64, n)
	dmat := make([][]int32, n)
	for src := 0; src < n; src++ {
		graph.BFS(s, src, dist, queue)
		dmat[src] = append([]int32(nil), dist...)
		sig := make([]float64, n)
		sig[src] = 1
		// Process nodes in BFS distance order.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		// counting via dynamic programming over distances
		for d := int32(1); ; d++ {
			found := false
			for v := 0; v < n; v++ {
				if dmat[src][v] != d {
					continue
				}
				found = true
				for _, w := range s.Neighbors(v) {
					if dmat[src][w] == d-1 {
						sig[v] += sig[w]
					}
				}
			}
			if !found {
				break
			}
		}
		sigma[src] = sig
	}
	for v := 0; v < n; v++ {
		for src := 0; src < n; src++ {
			for tgt := src + 1; tgt < n; tgt++ {
				if src == v || tgt == v || dmat[src][tgt] < 0 {
					continue
				}
				if dmat[src][v] >= 0 && dmat[v][tgt] >= 0 && dmat[src][v]+dmat[v][tgt] == dmat[src][tgt] {
					bc[v] += sigma[src][v] * sigma[tgt][v] / sigma[src][tgt]
				}
			}
		}
	}
	return bc
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: middle node 2 lies on 2·... pairs: (0,3),(0,4),(1,3),
	// (1,4) → 4, node 1 on (0,2),(0,3),(0,4) → 3.
	s := build(t, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	bc := Betweenness(s)
	want := []float64{0, 3, 4, 3, 0}
	for v := range want {
		if math.Abs(bc[v]-want[v]) > 1e-9 {
			t.Errorf("bc[%d] = %v, want %v", v, bc[v], want[v])
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with L leaves: center on all C(L,2) pairs.
	s := star(t, 6)
	bc := Betweenness(s)
	if math.Abs(bc[0]-15) > 1e-9 {
		t.Errorf("center bc = %v, want 15", bc[0])
	}
	for v := 1; v <= 6; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf bc[%d] = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := connectedRandom(rng, 4+rng.Intn(16), rng.Intn(30))
		fast := Betweenness(s)
		slow := bruteBetweenness(s)
		for v := range fast {
			if math.Abs(fast[v]-slow[v]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSampledBetweennessApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := connectedRandom(rng, 250, 500)
	exact := Betweenness(s)
	approx := SampledBetweenness(s, 125, rng)
	// Compare the mean absolute error relative to the mean value.
	var mean, err float64
	for v := range exact {
		mean += exact[v]
		err += math.Abs(exact[v] - approx[v])
	}
	if err/mean > 0.35 {
		t.Errorf("sampled betweenness relative error %v too large", err/mean)
	}
}

func TestNormalizedBetweenness(t *testing.T) {
	s := star(t, 4)
	nb := NormalizedBetweenness(s)
	// center: 6 pairs / (5·4/2 = 10) = 0.6
	if math.Abs(nb[0]-0.6) > 1e-12 {
		t.Errorf("normalized center = %v, want 0.6", nb[0])
	}
}

func TestMeanByDegree(t *testing.T) {
	s := paw(t)
	vals := []float64{10, 20, 30, 40}
	byDeg := MeanByDegree(s, vals)
	if math.Abs(byDeg[2]-15) > 1e-12 { // nodes 0,1 have degree 2
		t.Errorf("mean at degree 2 = %v, want 15", byDeg[2])
	}
	if math.Abs(byDeg[3]-30) > 1e-12 {
		t.Errorf("mean at degree 3 = %v, want 30", byDeg[3])
	}
	if math.Abs(byDeg[1]-40) > 1e-12 {
		t.Errorf("mean at degree 1 = %v, want 40", byDeg[1])
	}
}

func TestSMaxGreedy(t *testing.T) {
	// For the paw's degree sequence 3,2,2,1 the greedy wiring connects
	// 3—2, 3—2, 3—1, 2—2 → S = 6+6+3+4 = 19.
	got := SMaxGreedy([]int{3, 2, 2, 1})
	if got != 19 {
		t.Errorf("SMaxGreedy = %v, want 19", got)
	}
	// S of any graph with this sequence is <= the greedy bound here.
	if s := LikelihoodS(paw(t)); s > got {
		t.Errorf("S(paw) = %v exceeds greedy smax %v", s, got)
	}
}

func TestSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := connectedRandom(rng, 80, 160)
	sum, err := Summarize(s, SummaryOptions{Spectral: true, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 80 || sum.M != s.M() {
		t.Errorf("N,M = %d,%d", sum.N, sum.M)
	}
	if sum.AvgDegree <= 0 || sum.DBar <= 0 || sum.LambdaN <= 0 {
		t.Errorf("summary has non-positive fields: %+v", sum)
	}
	if sum.Lambda1 <= 0 || sum.Lambda1 > sum.LambdaN {
		t.Errorf("spectrum out of order: λ1=%v λn=%v", sum.Lambda1, sum.LambdaN)
	}
	// Options validation.
	if _, err := Summarize(s, SummaryOptions{Spectral: true}); err == nil {
		t.Error("Spectral without Rng accepted")
	}
	if _, err := Summarize(s, SummaryOptions{DistanceSources: 5}); err == nil {
		t.Error("sampling without Rng accepted")
	}
}

func TestMeanSummaries(t *testing.T) {
	a := Summary{N: 10, M: 20, AvgDegree: 4, R: -0.2, CBar: 0.5}
	b := Summary{N: 12, M: 22, AvgDegree: 6, R: -0.4, CBar: 0.3}
	avg := MeanSummaries([]Summary{a, b})
	if avg.N != 11 || avg.M != 21 {
		t.Errorf("N,M = %d,%d, want 11,21", avg.N, avg.M)
	}
	if math.Abs(avg.AvgDegree-5) > 1e-12 || math.Abs(avg.R+0.3) > 1e-12 {
		t.Errorf("avg = %+v", avg)
	}
	if MeanSummaries(nil) != (Summary{}) {
		t.Error("empty mean not zero")
	}
}

func TestEdgeBetweennessPath(t *testing.T) {
	// Path 0-1-2-3: edge (1,2) carries pairs {0,2},{0,3},{1,2},{1,3} = 4;
	// edge (0,1) carries {0,1},{0,2},{0,3} = 3.
	s := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	eb := EdgeBetweenness(s)
	if got := eb[graph.Edge{U: 1, V: 2}]; math.Abs(got-4) > 1e-9 {
		t.Errorf("eb(1,2) = %v, want 4", got)
	}
	if got := eb[graph.Edge{U: 0, V: 1}]; math.Abs(got-3) > 1e-9 {
		t.Errorf("eb(0,1) = %v, want 3", got)
	}
}

func TestEdgeBetweennessSumInvariant(t *testing.T) {
	// Σ_e eb(e) = Σ over connected pairs of d(u,v): every shortest path of
	// length L crosses L edges, each pair contributes its distance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := connectedRandom(rng, 5+rng.Intn(30), rng.Intn(60))
		eb := EdgeBetweenness(s)
		var sum float64
		for _, v := range eb {
			sum += v
		}
		dd := Distances(s)
		var wantSum float64
		for x, c := range dd.Count {
			wantSum += float64(x) * float64(c)
		}
		wantSum /= 2 // ordered → unordered pairs
		return math.Abs(sum-wantSum) < 1e-6*math.Max(1, wantSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDegreeCorrelationAtDistanceOne(t *testing.T) {
	// At d = 1 the definition coincides with assortativity over edges.
	rng := rand.New(rand.NewSource(13))
	s := connectedRandom(rng, 60, 120)
	got := DegreeCorrelationAtDistance(s, 1)
	want := Assortativity(s)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("corr at d=1 = %v, assortativity = %v", got, want)
	}
}

func TestDegreeCorrelationEdgeCases(t *testing.T) {
	if got := DegreeCorrelationAtDistance(star(t, 5), 2); got != 0 {
		t.Errorf("star leaf pairs have constant degree; corr = %v, want 0", got)
	}
	if got := DegreeCorrelationAtDistance(star(t, 5), 0); got != 0 {
		t.Errorf("d=0 corr = %v, want 0", got)
	}
	if got := DegreeCorrelationAtDistance(star(t, 5), 9); got != 0 {
		t.Errorf("unreachable distance corr = %v, want 0", got)
	}
}
