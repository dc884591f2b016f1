package generate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/stats"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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

// powerLawGraph builds a connected power-law-ish test graph via matching.
func powerLawGraph(t testing.TB, rng *rand.Rand, n int) *graph.CSR {
	t.Helper()
	pl, err := stats.NewPowerLaw(2.2, 1, n/4)
	if err != nil {
		t.Fatal(err)
	}
	var seq []int
	for {
		seq = pl.DegreeSequence(rng, n)
		if dk.Graphical(seq) {
			break
		}
	}
	g, err := Matching1K(dk.NewDegreeDist(seq), Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	gcc, _ := graph.GiantComponent(g)
	return gcc
}

func TestUnrankSamePairBijection(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64} {
		seen := make(map[[2]int]bool)
		total := int64(n) * int64(n-1) / 2
		for idx := int64(0); idx < total; idx++ {
			i, j := unrankSamePair(idx, n)
			if i < 0 || j <= i || j >= n {
				t.Fatalf("n=%d idx=%d → invalid pair (%d,%d)", n, idx, i, j)
			}
			key := [2]int{i, j}
			if seen[key] {
				t.Fatalf("n=%d idx=%d → duplicate pair (%d,%d)", n, idx, i, j)
			}
			seen[key] = true
		}
		if int64(len(seen)) != total {
			t.Fatalf("n=%d: %d pairs, want %d", n, len(seen), total)
		}
	}
}

func TestBlockSampleDensity(t *testing.T) {
	rng := newRng(1)
	var hits int64
	total := int64(200000)
	blockSample(rng, total, 0.05,
		func(idx int64) (int, int) { return int(idx), int(idx) },
		func(u, v int) { hits++ })
	got := float64(hits) / float64(total)
	if math.Abs(got-0.05) > 0.005 {
		t.Errorf("empirical density %v, want 0.05", got)
	}
	// p >= 1 selects everything; p <= 0 selects nothing.
	hits = 0
	blockSample(rng, 100, 1.5, func(idx int64) (int, int) { return 0, 0 }, func(u, v int) { hits++ })
	if hits != 100 {
		t.Errorf("p>=1 hit %d of 100", hits)
	}
	hits = 0
	blockSample(rng, 100, 0, func(idx int64) (int, int) { return 0, 0 }, func(u, v int) { hits++ })
	if hits != 0 {
		t.Errorf("p=0 hit %d", hits)
	}
}

func TestStochastic0K(t *testing.T) {
	rng := newRng(2)
	g, err := Stochastic0K(2000, 6, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	if math.Abs(g.AvgDegree()-6) > 0.5 {
		t.Errorf("avg degree %v, want ≈ 6", g.AvgDegree())
	}
	if _, err := Stochastic0K(0, 3, Options{Rng: rng}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Stochastic0K(10, 3, Options{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestStochastic0KDegreesArePoisson(t *testing.T) {
	// Table 1 of the paper: the maximum-entropy 1K-distribution of
	// 0K-random graphs is Poisson (binomial).
	rng := newRng(3)
	kbar := 5.0
	h := stats.NewIntHistogram()
	for trial := 0; trial < 5; trial++ {
		g, err := Stochastic0K(3000, kbar, Options{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range g.DegreeSequence() {
			h.Add(d)
		}
	}
	for _, k := range []int{2, 5, 8} {
		want := stats.PoissonPMF(kbar, k)
		if math.Abs(h.P(k)-want) > 0.02 {
			t.Errorf("P(%d) = %v, want Poisson %v", k, h.P(k), want)
		}
	}
}

func TestStochastic1KExpectedDegrees(t *testing.T) {
	rng := newRng(4)
	dd := dk.NewDegreeDist(nil)
	dd.N = 1200
	dd.Count = map[int]int{2: 800, 5: 300, 20: 100}
	var sums = map[int]float64{}
	var cnts = map[int]int{}
	for trial := 0; trial < 8; trial++ {
		g, err := Stochastic1K(dd, Options{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		// classesFromDist assigns ids by ascending degree: first 800 are
		// class 2, next 300 class 5, last 100 class 20.
		for u := 0; u < g.N(); u++ {
			var class int
			switch {
			case u < 800:
				class = 2
			case u < 1100:
				class = 5
			default:
				class = 20
			}
			sums[class] += float64(g.Degree(u))
			cnts[class]++
		}
	}
	for _, class := range []int{2, 5, 20} {
		got := sums[class] / float64(cnts[class])
		if math.Abs(got-float64(class)) > 0.35*float64(class) {
			t.Errorf("class %d: mean degree %v", class, got)
		}
	}
}

func TestStochasticDenseClassClamp(t *testing.T) {
	// Regression for the documented min(1, p) clamp: dense classes can
	// push the raw block probability past 1, and the construction must
	// then connect every pair in the block rather than misbehave.
	rng := newRng(40)
	// 2K: one (4,4) block with 8 edges over 4 nodes of degree 4 — only
	// C(4,2) = 6 pairs exist, so p = 8/6 > 1. The clamp yields K4.
	jdd := dk.NewJDD()
	jdd.Add(4, 4, 8)
	g, err := Stochastic2K(jdd, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 6 {
		t.Errorf("dense 2K block: got n=%d m=%d, want complete K4 (n=4 m=6)", g.N(), g.M())
	}
	// 1K: two nodes of expected degree 10 — p = 10·10/20 = 5 > 1; the
	// clamp connects the single same-class pair exactly once.
	dd := dk.NewDegreeDist(nil)
	dd.N = 2
	dd.Count = map[int]int{10: 2}
	g, err = Stochastic1K(dd, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("dense 1K class: got n=%d m=%d, want n=2 m=1", g.N(), g.M())
	}
}

func TestStochastic2KReproducesJDDInExpectation(t *testing.T) {
	rng := newRng(5)
	src := powerLawGraph(t, rng, 600)
	p, err := dk.Extract(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The stochastic construction reproduces the JDD in expectation over
	// *label* classes — realized degrees fluctuate (the §4.1.1 variance
	// problem), so the comparison must group edges by target labels.
	dd, err := p.Joint.DegreeDist()
	if err != nil {
		t.Fatal(err)
	}
	labels := ClassLabels(dd)
	var totErr, totCnt float64
	got := make(map[dk.DegPair]float64)
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		g, err := Stochastic2K(p.Joint, Options{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			got[dk.NewDegPair(labels[e.U], labels[e.V])]++
		}
	}
	for pr, m := range p.Joint.Count {
		mean := got[pr] / trials
		totErr += math.Abs(mean - float64(m))
		totCnt += float64(m)
	}
	if totErr/totCnt > 0.2 {
		t.Errorf("relative JDD error %v too large", totErr/totCnt)
	}
	bad := dk.NewJDD()
	bad.Add(3, 3, 1) // 2 three-endpoints: not divisible by 3
	if _, err := Stochastic2K(bad, Options{Rng: rng}); err == nil {
		t.Error("inconsistent JDD accepted")
	}
}

func TestPseudograph1K(t *testing.T) {
	rng := newRng(6)
	pl, _ := stats.NewPowerLaw(2.1, 1, 60)
	seq := pl.DegreeSequence(rng, 500)
	dd := dk.NewDegreeDist(seq)
	res, err := Pseudograph1K(dd, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.Full.N() != 500 {
		t.Fatalf("Full.N = %d", res.Full.N())
	}
	// Degrees in Full can only be ≤ target (loop/dup removal).
	cls := classesFromDist(dd)
	for i, k := range cls.degrees {
		for _, u := range cls.nodes[i] {
			if res.Full.Degree(u) > k {
				t.Fatalf("node %d degree %d exceeds target %d", u, res.Full.Degree(u), k)
			}
		}
	}
	// Conservation: target stubs = 2·(edges kept + self-loops removed +
	// multi-edges removed).
	kept := res.Full.M()
	if kept+res.Badness.SelfLoops+res.Badness.MultiEdges != dd.TotalDegree()/2 {
		t.Errorf("edge conservation: kept=%d loops=%d multi=%d, want total %d",
			kept, res.Badness.SelfLoops, res.Badness.MultiEdges, dd.TotalDegree()/2)
	}
	if res.GCC.N() == 0 || res.GCC.N() > res.Full.N() {
		t.Errorf("GCC size %d out of range", res.GCC.N())
	}
	if _, err := Pseudograph1K(dk.NewDegreeDist([]int{3}), Options{Rng: rng}); err == nil {
		t.Error("odd-sum sequence accepted")
	}
}

func TestPseudograph2K(t *testing.T) {
	rng := newRng(7)
	src := powerLawGraph(t, rng, 400)
	p, err := dk.Extract(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Pseudograph2K(p.Joint, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdjustedNodes != 0 {
		t.Errorf("graph-derived JDD should need no adjustment, got %d", res.AdjustedNodes)
	}
	// Edge conservation through simplification.
	if res.Full.M()+res.Badness.SelfLoops+res.Badness.MultiEdges != p.Joint.M {
		t.Errorf("edge conservation failed: %d + %d + %d != %d",
			res.Full.M(), res.Badness.SelfLoops, res.Badness.MultiEdges, p.Joint.M)
	}
	// Counting edges by label class: realized counts never exceed the
	// target, and the total shortfall is exactly the removed badness.
	got := make(map[dk.DegPair]int)
	for _, e := range res.Full.Edges() {
		got[dk.NewDegPair(res.Labels[e.U], res.Labels[e.V])]++
	}
	shortfall := 0
	for pr, m := range p.Joint.Count {
		if got[pr] > m {
			t.Errorf("class %v realized %d > target %d", pr, got[pr], m)
		}
		shortfall += m - got[pr]
	}
	if shortfall != res.Badness.SelfLoops+res.Badness.MultiEdges {
		t.Errorf("shortfall %d != loops %d + multis %d",
			shortfall, res.Badness.SelfLoops, res.Badness.MultiEdges)
	}
	// The paper's §5.1 claim: 2K pseudograph badness stays small.
	if frac := float64(res.Badness.SelfLoops+res.Badness.MultiEdges) / float64(p.Joint.M); frac > 0.1 {
		t.Errorf("badness fraction %v exceeds 10%%", frac)
	}
}

func TestMatching1KExactDegrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		n := 20 + rng.Intn(200)
		pl, _ := stats.NewPowerLaw(2.0, 1, n/3)
		var seq []int
		for {
			seq = pl.DegreeSequence(rng, n)
			if dk.Graphical(seq) {
				break
			}
		}
		dd := dk.NewDegreeDist(seq)
		g, err := Matching1K(dd, Options{Rng: rng})
		if err != nil {
			return false
		}
		got := dk.NewDegreeDist(g.DegreeSequence())
		for k, c := range dd.Count {
			if got.Count[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMatching1KRejectsNonGraphical(t *testing.T) {
	rng := newRng(8)
	if _, err := Matching1K(dk.NewDegreeDist([]int{3, 3, 1, 1}), Options{Rng: rng}); err == nil {
		t.Error("non-graphical sequence accepted")
	}
}

func TestMatching2KExactJDD(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		src := connectedRandom(rng, 30+rng.Intn(80), 60+rng.Intn(100))
		p, err := dk.Extract(src, 2)
		if err != nil {
			return false
		}
		g, err := Matching2K(p.Joint, Options{Rng: rng})
		if err != nil {
			t.Log(err)
			return false
		}
		q, err := dk.Extract(g, 2)
		if err != nil {
			return false
		}
		return g.M() == p.M && dk.D2(p.Joint, q.Joint) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRewirePreservesInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		g := connectedRandom(rng, 15+rng.Intn(40), 20+rng.Intn(80))
		for depth := 0; depth <= 3; depth++ {
			before, err := dk.Extract(g, 3)
			if err != nil {
				return false
			}
			out, _, err := Randomize(g, depth, RandomizeOptions{Rng: rng, SwapFactor: 3})
			if err != nil {
				return false
			}
			after, err := dk.Extract(out, 3)
			if err != nil {
				return false
			}
			// Simplicity invariants.
			if out.N() != g.N() || out.M() != g.M() {
				return false
			}
			switch depth {
			case 1:
				if d, _ := dk.Distance(before, after, 1); d != 0 {
					return false
				}
			case 2:
				if d, _ := dk.Distance(before, after, 2); d != 0 {
					return false
				}
			case 3:
				if d, _ := dk.Distance(before, after, 3); d != 0 {
					return false
				}
				// 3K preservation implies 2K and 1K preservation.
				if d, _ := dk.Distance(before, after, 2); d != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestRandomizeActuallyRandomizes(t *testing.T) {
	rng := newRng(9)
	g := connectedRandom(rng, 60, 150)
	out, st, err := Randomize(g, 1, RandomizeOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted == 0 {
		t.Fatal("no swaps accepted")
	}
	if out.Equal(g) {
		t.Error("randomized graph identical to input")
	}
	// Input must be untouched.
	if g.M() != 150+59 {
		t.Errorf("input mutated: M = %d", g.M())
	}
}

func TestRandomizePreserveConnectivity(t *testing.T) {
	for _, depth := range []int{1, 2} {
		rng := newRng(10)
		g := connectedRandom(rng, 40, 20)
		out, _, err := Randomize(g, depth, RandomizeOptions{Rng: rng, SwapFactor: 5, PreserveConnectivity: true})
		if err != nil {
			t.Fatal(err)
		}
		if !graph.IsConnected(out) {
			t.Errorf("d=%d: connectivity not preserved", depth)
		}
	}
}

func TestJDDObjectiveTracksD2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		g := connectedRandom(rng, 20+rng.Intn(30), 30+rng.Intn(60))
		tgtGraph := connectedRandom(rng, g.N(), g.M()-g.N()+1)
		tgt, err := dk.Extract(tgtGraph, 2)
		if err != nil {
			return false
		}
		obj := NewJDDObjective(tgt.Joint)
		r, err := NewRewirer(g, 1, rng)
		if err != nil {
			return false
		}
		if err := obj.Init(g); err != nil {
			return false
		}
		r.Obj = obj
		if _, err := r.Run(50, 5000, 0); err != nil {
			return false
		}
		// Incremental state must match recomputation from scratch.
		now, err := dk.Extract(g, 2)
		if err != nil {
			return false
		}
		return math.Abs(obj.Current()-dk.D2(now.Joint, tgt.Joint)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCensusObjectiveTracksD3Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		g := connectedRandom(rng, 15+rng.Intn(25), 25+rng.Intn(50))
		tgtGraph := connectedRandom(rng, g.N(), g.M()-g.N()+1)
		tgt, err := dk.Extract(tgtGraph, 3)
		if err != nil {
			return false
		}
		obj := NewCensusObjective(tgt.Census)
		r, err := NewRewirer(g, 2, rng)
		if err != nil {
			return false
		}
		if err := obj.Init(g); err != nil {
			return false
		}
		r.Obj = obj
		if _, err := r.Run(30, 5000, 0); err != nil {
			return false
		}
		now, err := dk.Extract(g, 3)
		if err != nil {
			return false
		}
		return math.Abs(obj.Current()-dk.D3(now.Census, tgt.Census)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestDegreeDistObjectiveTracksD1Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		g := connectedRandom(rng, 20+rng.Intn(30), 30+rng.Intn(40))
		tgtGraph := connectedRandom(rng, g.N(), g.M()-g.N()+1)
		tgt, err := dk.Extract(tgtGraph, 1)
		if err != nil {
			return false
		}
		obj := NewDegreeDistObjective(tgt.Degrees)
		r, err := NewRewirer(g, 0, rng)
		if err != nil {
			return false
		}
		if err := obj.Init(g); err != nil {
			return false
		}
		r.Obj = obj
		if _, err := r.Run(50, 5000, 0); err != nil {
			return false
		}
		now, err := dk.Extract(g, 1)
		if err != nil {
			return false
		}
		return math.Abs(obj.Current()-dk.D1(now.Degrees, tgt.Degrees)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTargetRewire2KConverges(t *testing.T) {
	rng := newRng(11)
	src := powerLawGraph(t, rng, 300)
	tgt, err := dk.Extract(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Start from a 1K-random graph with the same degree distribution.
	p1, err := dk.Extract(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, err := Matching1K(p1.Degrees, Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TargetRewire(start, tgt, 2, TargetOptions{Rng: rng, StopAtZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalD >= res.InitialD {
		t.Errorf("D2 did not decrease: %v → %v", res.InitialD, res.FinalD)
	}
	if res.FinalD > 0.05*res.InitialD {
		t.Errorf("D2 converged poorly: %v → %v", res.InitialD, res.FinalD)
	}
}

func TestTargetRewire3KImproves(t *testing.T) {
	rng := newRng(12)
	src := connectedRandom(rng, 80, 160)
	tgt, err := dk.Extract(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	start, _, err := Randomize(src, 2, RandomizeOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TargetRewire(start, tgt, 3, TargetOptions{Rng: rng, StopAtZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialD > 0 && res.FinalD >= res.InitialD {
		t.Errorf("D3 did not decrease: %v → %v", res.InitialD, res.FinalD)
	}
	// 2K must be preserved along the way.
	q, err := dk.Extract(res.FinalGraph, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := dk.D2(q.Joint, tgt.Joint); d != 0 {
		t.Errorf("3K-targeting broke the JDD: D2 = %v", d)
	}
}

func TestTargetRewire1KConverges(t *testing.T) {
	rng := newRng(13)
	src := powerLawGraph(t, rng, 200)
	tgt, err := dk.Extract(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, err := Stochastic0K(src.N(), src.AvgDegree(), Options{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TargetRewire(start, tgt, 1, TargetOptions{Rng: rng, StopAtZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalD >= res.InitialD {
		t.Errorf("D1 did not decrease: %v → %v", res.InitialD, res.FinalD)
	}
}

func TestTargetRewireValidation(t *testing.T) {
	rng := newRng(14)
	g := connectedRandom(rng, 20, 30)
	p1, _ := dk.Extract(g, 1)
	if _, err := TargetRewire(g, p1, 2, TargetOptions{Rng: rng}); err == nil {
		t.Error("depth beyond target profile accepted")
	}
	if _, err := TargetRewire(g, p1, 0, TargetOptions{Rng: rng}); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := TargetRewire(g, p1, 1, TargetOptions{}); err == nil {
		t.Error("missing Rng accepted")
	}
}

// targetStopFixture returns a small graph's 2K profile and a 1K-random
// start with the same degree sequence.
func targetStopFixture(t *testing.T) (*dk.Profile, *graph.CSR) {
	t.Helper()
	rng := newRng(1)
	src := connectedRandom(rng, 30, 10)
	tgt, err := dk.Extract(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	start, _, err := Randomize(src, 1, RandomizeOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	return tgt, start
}

func TestTargetRewireStopZero(t *testing.T) {
	tgt, start := targetStopFixture(t)
	res, err := TargetRewire(start, tgt, 2, TargetOptions{Rng: newRng(1), StopAtZero: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopZero || res.FinalD != 0 || res.InitialD == 0 {
		t.Fatalf("Stop = %v, D %v → %v; want zero, D > 0 → 0", res.Stop, res.InitialD, res.FinalD)
	}
	if res.Stats.Attempts >= 200*start.M() {
		t.Fatalf("stopped at zero only after the full budget: %d attempts", res.Stats.Attempts)
	}
}

// TestTargetRewireStopZeroAtStart checks that a StopAtZero run whose
// start already has its target's distribution, at d=2 and d=3, returns
// before its first proposal: Stop = StopZero, no attempt, no draw from
// the random source, and a clone of the start in its EdgeAt order.
func TestTargetRewireStopZeroAtStart(t *testing.T) {
	g := connectedRandom(newRng(4), 60, 90)
	p, err := dk.Extract(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{2, 3} {
		rng := newRng(9)
		res, err := TargetRewire(g, p, d, TargetOptions{Rng: rng, StopAtZero: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopZero || res.InitialD != 0 || res.FinalD != 0 || res.Stats != (RewireStats{}) {
			t.Fatalf("d=%d: Stop = %v, D %v → %v, stats %+v; want zero at once", d, res.Stop, res.InitialD, res.FinalD, res.Stats)
		}
		if res.FinalGraph == g || !reflect.DeepEqual(res.FinalGraph.Edges(), g.Edges()) {
			t.Fatalf("d=%d: FinalGraph is not an unchanged clone of the start", d)
		}
		if rng.Int63() != newRng(9).Int63() {
			t.Fatalf("d=%d: the run drew from its random source", d)
		}
	}
}

func TestTargetRewireStopPatience(t *testing.T) {
	tgt, start := targetStopFixture(t)
	const patience = 5
	res, err := TargetRewire(start, tgt, 2, TargetOptions{Rng: newRng(2), Patience: patience, MaxAttempts: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopPatience || res.Stats.Attempts >= 1<<20 {
		t.Fatalf("Stop = %v after %d attempts; want patience", res.Stop, res.Stats.Attempts)
	}
}

func TestTargetRewireStopMaxAttempts(t *testing.T) {
	tgt, start := targetStopFixture(t)
	res, err := TargetRewire(start, tgt, 2, TargetOptions{Rng: newRng(3), MaxAttempts: 40, Patience: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopMaxAttempts || res.Stats.Attempts != 40 {
		t.Fatalf("Stop = %v after %d attempts; want max_attempts after 40", res.Stop, res.Stats.Attempts)
	}
	if res.Stop.String() != "max_attempts" || StopZero.String() != "zero" || StopPatience.String() != "patience" {
		t.Fatal("stop reason names changed")
	}
}

func TestExploreLikelihood(t *testing.T) {
	rng := newRng(16)
	g := powerLawGraph(t, rng, 250)
	sBefore := likelihoodOf(g)
	up, err := Explore(g, MetricLikelihood, ExploreOptions{Rng: rng, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	down, err := Explore(g, MetricLikelihood, ExploreOptions{Rng: rng, Maximize: false})
	if err != nil {
		t.Fatal(err)
	}
	sUp, sDown := likelihoodOf(up.FinalGraph), likelihoodOf(down.FinalGraph)
	if sUp <= sBefore {
		t.Errorf("S-maximization failed: %v → %v", sBefore, sUp)
	}
	if sDown >= sBefore {
		t.Errorf("S-minimization failed: %v → %v", sBefore, sDown)
	}
	// Degree distribution preserved.
	a, _ := dk.Extract(g, 1)
	b, _ := dk.Extract(up.FinalGraph, 1)
	if d := dk.D1(a.Degrees, b.Degrees); d != 0 {
		t.Errorf("exploration broke the degree distribution: D1 = %v", d)
	}
}

func likelihoodOf(g *graph.CSR) float64 {
	var s float64
	for _, e := range g.Edges() {
		s += float64(g.Degree(e.U)) * float64(g.Degree(e.V))
	}
	return s
}

func TestExploreClustering(t *testing.T) {
	rng := newRng(17)
	g := connectedRandom(rng, 120, 360)
	before, _ := dk.Extract(g, 3)
	up, err := Explore(g, MetricClustering, ExploreOptions{Rng: rng, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := dk.Extract(up.FinalGraph, 3)
	if after.Census.TotalTriangles() <= before.Census.TotalTriangles() {
		t.Errorf("clustering maximization did not add triangles: %d → %d",
			before.Census.TotalTriangles(), after.Census.TotalTriangles())
	}
	// JDD preserved under 2K exploration.
	if d := dk.D2(before.Joint, after.Joint); d != 0 {
		t.Errorf("exploration broke the JDD: D2 = %v", d)
	}
}

func TestExploreS2(t *testing.T) {
	rng := newRng(18)
	g := powerLawGraph(t, rng, 200)
	up, err := Explore(g, MetricS2, ExploreOptions{Rng: rng, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.Stats.Accepted == 0 {
		t.Error("S2 exploration accepted nothing")
	}
	before, _ := dk.Extract(g, 2)
	after, _ := dk.Extract(up.FinalGraph, 2)
	if d := dk.D2(before.Joint, after.Joint); d != 0 {
		t.Errorf("S2 exploration broke the JDD: D2 = %v", d)
	}
}

func TestCountInitialRewiringsSmall(t *testing.T) {
	// Path 0-1-2: no valid double-edge swaps (shared node), one free slot
	// for the 0K move of each edge.
	p3 := graph.NewCSR(3)
	if err := p3.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p3.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	rc0, err := CountInitialRewirings(p3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rc0.Possible != 2 { // 2 edges × 1 unoccupied pair
		t.Errorf("P3 depth-0 count = %d, want 2", rc0.Possible)
	}
	rc1, err := CountInitialRewirings(p3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc1.Possible != 0 {
		t.Errorf("P3 depth-1 count = %d, want 0", rc1.Possible)
	}
	// Two disjoint edges: both orientations valid, both obvious
	// isomorphisms (all degree-1).
	two := graph.NewCSR(4)
	if err := two.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := two.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	for depth := 1; depth <= 3; depth++ {
		rc, err := CountInitialRewirings(two, depth)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Possible != 2 {
			t.Errorf("disjoint edges depth-%d Possible = %d, want 2", depth, rc.Possible)
		}
		if rc.IgnoringIsomorphs != 0 {
			t.Errorf("disjoint edges depth-%d IgnoringIsomorphs = %d, want 0", depth, rc.IgnoringIsomorphs)
		}
	}
}

func TestCountInitialRewiringsMonotone(t *testing.T) {
	// Inclusion property: the rewiring sets shrink as d grows.
	f := func(seed int64) bool {
		rng := newRng(seed)
		g := connectedRandom(rng, 10+rng.Intn(20), 15+rng.Intn(25))
		var prev int64 = math.MaxInt64
		for depth := 1; depth <= 3; depth++ {
			rc, err := CountInitialRewirings(g, depth)
			if err != nil {
				return false
			}
			if rc.Possible > prev {
				return false
			}
			if rc.IgnoringIsomorphs > rc.Possible {
				return false
			}
			prev = rc.Possible
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCountDepth3LeavesGraphIntact(t *testing.T) {
	rng := newRng(19)
	g := connectedRandom(rng, 20, 40)
	before := g.Clone()
	if _, err := CountInitialRewirings(g, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Error("counting mutated the graph")
	}
}

func TestConnectViaSwaps(t *testing.T) {
	rng := newRng(30)
	// Three separate cycles plus isolated nodes.
	g := graph.NewCSR(16)
	cycle := func(nodes []int) {
		for i := range nodes {
			if err := g.AddEdge(nodes[i], nodes[(i+1)%len(nodes)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle([]int{0, 1, 2, 3})
	cycle([]int{4, 5, 6})
	cycle([]int{7, 8, 9, 10, 11})
	// 12..15 isolated
	degBefore := g.DegreeSequence()
	isolated, err := ConnectViaSwaps(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	if isolated != 4 {
		t.Errorf("isolated = %d, want 4", isolated)
	}
	// Degree sequence unchanged.
	for u, d := range g.DegreeSequence() {
		if d != degBefore[u] {
			t.Errorf("degree of %d changed: %d → %d", u, degBefore[u], d)
		}
	}
	// All edge-bearing nodes in one component.
	gcc, _ := graph.GiantComponent(g)
	if gcc.N() != 12 {
		t.Errorf("GCC size %d, want 12", gcc.N())
	}
}

func TestConnectViaSwapsAlreadyConnected(t *testing.T) {
	rng := newRng(31)
	g := connectedRandom(rng, 30, 40)
	before := g.Clone()
	if _, err := ConnectViaSwaps(g, rng); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(before) {
		t.Error("already-connected graph was modified")
	}
}

func TestConnectViaSwapsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		// Random components, each a tree plus enough chords that the
		// whole graph satisfies the m >= n-1 feasibility condition.
		g := graph.NewCSR(40)
		for c := 0; c < 5; c++ {
			base := c * 8
			size := 4 + rng.Intn(4)
			for i := 1; i < size; i++ {
				if err := g.AddEdge(base+i, base+rng.Intn(i)); err != nil {
					return false
				}
			}
			// Two chords per component keep cycles available throughout
			// the merge sequence.
			for added := 0; added < 2; {
				a, b := base+rng.Intn(size), base+rng.Intn(size)
				if a == b || g.HasEdge(a, b) {
					continue
				}
				if err := g.AddEdge(a, b); err != nil {
					return false
				}
				added++
			}
		}
		degBefore := g.DegreeSequence()
		if _, err := ConnectViaSwaps(g, rng); err != nil {
			return false
		}
		for u, d := range g.DegreeSequence() {
			if d != degBefore[u] {
				return false
			}
		}
		// Non-isolated nodes form one component.
		nonIso, _ := graph.DropIsolated(g)
		return graph.IsConnected(nonIso)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConnectViaSwapsForestInfeasible(t *testing.T) {
	rng := newRng(33)
	// Two disjoint trees: degree-preserving connection is impossible
	// (m = n − 2 < n − 1).
	g := graph.NewCSR(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ConnectViaSwaps(g, rng); err == nil {
		t.Error("forest accepted; want infeasibility error")
	}
}
