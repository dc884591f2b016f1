package netsim

import (
	"errors"
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

func star(t testing.TB, leaves int) *graph.CSR {
	g := graph.NewCSR(leaves + 1)
	for i := 1; i <= leaves; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func complete(t testing.TB, n int) *graph.CSR {
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestRobustnessTargetedStar(t *testing.T) {
	// Removing the hub of a star shatters it: GCC falls to 1/n.
	s := star(t, 20)
	pts, err := Robustness(s, []float64{0, 0.05}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].GCCFrac != 1 {
		t.Errorf("GCC before removal = %v, want 1", pts[0].GCCFrac)
	}
	// 5% of 21 nodes = 1 node removed — the hub (highest degree).
	want := 1.0 / 21
	if math.Abs(pts[1].GCCFrac-want) > 1e-9 {
		t.Errorf("GCC after hub removal = %v, want %v", pts[1].GCCFrac, want)
	}
}

func TestRobustnessRandomVsTargeted(t *testing.T) {
	// On a hub-dominated graph, targeted attack must hurt at least as
	// much as random failure at the same fraction.
	rng := rand.New(rand.NewSource(1))
	g := graph.NewCSR(200)
	for i := 1; i < 200; i++ {
		hub := (i % 5)
		if i > 4 {
			if err := g.AddEdge(i, hub); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < 5; i++ {
		if err := g.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	s := g
	fracs := []float64{0.01, 0.02, 0.025}
	tgt, err := Robustness(s, fracs, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Robustness(s, fracs, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fracs {
		if tgt[i].GCCFrac > rnd[i].GCCFrac+1e-9 {
			t.Errorf("at %.3f: targeted GCC %v > random %v", fracs[i], tgt[i].GCCFrac, rnd[i].GCCFrac)
		}
	}
}

func TestRobustnessValidation(t *testing.T) {
	if _, err := Robustness(graph.NewCSR(0), []float64{0.1}, true, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty graph: err = %v, want ErrInvalid", err)
	}
	if _, err := Robustness(star(t, 3), []float64{0.1}, false, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("random mode without rng: err = %v, want ErrInvalid", err)
	}
	for _, frac := range []float64{-0.1, 1.5} {
		if _, err := Robustness(star(t, 3), []float64{frac}, true, nil); !errors.Is(err, ErrInvalid) {
			t.Errorf("frac %v: err = %v, want ErrInvalid", frac, err)
		}
	}
}

func TestRobustnessDegenerateGraphs(t *testing.T) {
	// Zero-edge and single-node graphs yield well-defined curves.
	pts, err := Robustness(graph.NewCSR(1), []float64{0, 1}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].GCCFrac != 1 || pts[1].GCCFrac != 0 {
		t.Errorf("single node curve = %+v, want GCC 1 then 0", pts)
	}
	pts, err = Robustness(graph.NewCSR(5), []float64{0, 0.5}, false, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.IsNaN(p.GCCFrac) || p.GCCFrac < 0 || p.GCCFrac > 1 {
			t.Errorf("zero-edge curve point %+v out of range", p)
		}
	}
}

func TestWormSpreadCompleteGraph(t *testing.T) {
	// With beta = 1 on K_n, everything is infected after one round.
	s := complete(t, 12)
	res, err := WormSpread(s, 1, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RoundsTo(1.0); got != 1 {
		t.Errorf("full coverage at round %d, want 1", got)
	}
}

func TestWormSpreadPathIsSlow(t *testing.T) {
	// On a path, beta = 1 spreads one hop per round from the seed: the
	// number of rounds to full coverage is the seed's eccentricity.
	n := 30
	g := graph.NewCSR(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := WormSpread(g, 1, 100, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	r := res.RoundsTo(1.0)
	if r < n/2-1 || r > n-1 {
		t.Errorf("path coverage in %d rounds, want between %d and %d", r, n/2-1, n-1)
	}
}

func TestWormSpreadMonotoneCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := graph.NewCSR(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(i, rng.Intn(i)); err != nil {
				return false
			}
		}
		beta := 0.2 + 0.8*rng.Float64()
		res, err := WormSpread(g, beta, 200, rng)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Coverage); i++ {
			if res.Coverage[i] < res.Coverage[i-1] {
				return false
			}
		}
		// Connected graph + enough rounds: beta>0 eventually covers all.
		return res.Coverage[len(res.Coverage)-1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWormSpreadValidation(t *testing.T) {
	s := star(t, 3)
	for _, beta := range []float64{1.5, 0, -0.5} {
		if _, err := WormSpread(s, beta, 10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrInvalid) {
			t.Errorf("beta %v: err = %v, want ErrInvalid", beta, err)
		}
	}
	if _, err := WormSpread(s, 0.5, 10, nil); !errors.Is(err, ErrInvalid) {
		t.Error("nil rng accepted")
	}
	if _, err := WormSpread(graph.NewCSR(0), 0.5, 10, rand.New(rand.NewSource(1))); !errors.Is(err, ErrInvalid) {
		t.Error("empty graph accepted")
	}
}

func TestWormSpreadDegenerateGraphs(t *testing.T) {
	// A single node is fully covered by its own seeding; a zero-edge
	// graph never spreads past the seed. Neither may produce NaNs.
	res, err := WormSpread(graph.NewCSR(1), 0.5, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage[0] != 1 {
		t.Errorf("single-node coverage = %v, want [1]", res.Coverage)
	}
	res, err = WormSpread(graph.NewCSR(4), 0.5, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Coverage {
		if math.IsNaN(c) || c != 0.25 {
			t.Errorf("zero-edge coverage = %v, want all 0.25", res.Coverage)
		}
	}
}

func TestGreedyRoutingStar(t *testing.T) {
	// On a star every pair routes via the hub in <= 2 hops: success 1,
	// stretch 1 (shortest paths are also <= 2).
	s := star(t, 10)
	res, err := GreedyDegreeRouting(s, 200, 0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != 1 {
		t.Errorf("success rate %v, want 1", res.SuccessRate)
	}
	if math.Abs(res.AvgStretch-1) > 1e-9 {
		t.Errorf("stretch %v, want 1", res.AvgStretch)
	}
}

func TestGreedyRoutingValidation(t *testing.T) {
	if _, err := GreedyDegreeRouting(star(t, 2), 10, 0, nil); !errors.Is(err, ErrInvalid) {
		t.Error("nil rng accepted")
	}
	for _, trials := range []int{0, -5} {
		if _, err := GreedyDegreeRouting(star(t, 2), trials, 0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrInvalid) {
			t.Errorf("trials %d: want ErrInvalid", trials)
		}
	}
	// Fewer than two nodes: no routable pairs, well-defined zero result.
	res, err := GreedyDegreeRouting(graph.NewCSR(1), 10, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != 0 || res.AvgStretch != 0 {
		t.Errorf("single-node routing = %+v, want zero result", res)
	}
}

func TestGreedyRoutingStretchAtLeastOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		g := graph.NewCSR(n)
		for i := 1; i < n; i++ {
			if err := g.AddEdge(i, rng.Intn(i)); err != nil {
				return false
			}
		}
		res, err := GreedyDegreeRouting(g, 50, 0, rng)
		if err != nil {
			return false
		}
		if res.SuccessRate < 0 || res.SuccessRate > 1 {
			return false
		}
		return res.AvgStretch == 0 || res.AvgStretch >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
