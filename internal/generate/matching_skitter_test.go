package generate_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/generate"
)

// TestMatching2KSkitterInputs pins 2K matching on the Skitter inputs the
// earlier repair-and-restart matching failed on (the topology seed is
// also the matching seed). Each must build with the target's edge count
// and JDD (D2 = 0), and 3K targeting, which starts from 2K matching,
// must keep the target's edge count.
func TestMatching2KSkitterInputs(t *testing.T) {
	inputs := []struct{ n, seed int }{
		{400, 26},
		{1000, 17}, {1000, 19}, {1000, 26},
		{1500, 3}, {1500, 8}, {1500, 17}, {1500, 26},
	}
	for _, in := range inputs {
		t.Run(fmt.Sprintf("N=%d/seed=%d", in.n, in.seed), func(t *testing.T) {
			src, err := datasets.Skitter(datasets.SkitterConfig{N: in.n, Seed: int64(in.seed)})
			if err != nil {
				t.Fatal(err)
			}
			p, err := dk.Extract(src, 3)
			if err != nil {
				t.Fatal(err)
			}
			g, err := generate.Matching2K(p.Joint, generate.Options{Rng: rand.New(rand.NewSource(int64(in.seed)))})
			if err != nil {
				t.Fatal(err)
			}
			q, err := dk.Extract(g, 2)
			if err != nil {
				t.Fatal(err)
			}
			if g.M() != p.M || dk.D2(p.Joint, q.Joint) != 0 {
				t.Errorf("Matching2K: m=%d D2=%v; want m=%d D2=0", g.M(), dk.D2(p.Joint, q.Joint), p.M)
			}
			r, err := generate.FromProfile(p, 3, generate.MethodTargeting, rand.New(rand.NewSource(int64(in.seed))))
			if err != nil {
				t.Fatal(err)
			}
			if r.M() != p.M {
				t.Errorf("3K targeting: m=%d; want the target's m=%d", r.M(), p.M)
			}
		})
	}
}

// TestMatching2KRejectsNonGraphical checks that a JDD without a
// realization makes 2K matching and 3K targeting return an error that
// names the offending class pair, and no graph.
func TestMatching2KRejectsNonGraphical(t *testing.T) {
	// Two nodes of degree 2 joined by two edges: n_2 = 2 allows one.
	jdd := dk.NewJDD()
	jdd.Add(2, 2, 2)
	g, err := generate.Matching2K(jdd, generate.Options{Rng: rand.New(rand.NewSource(1))})
	if err == nil || g != nil || !strings.Contains(err.Error(), "(2,2)") {
		t.Fatalf("Matching2K = %v, %v; want no graph and an error naming (2,2)", g, err)
	}
	p := &dk.Profile{D: 3, N: 2, M: 2, AvgDegree: 2, Degrees: dk.NewDegreeDist([]int{2, 2}), Joint: jdd}
	g, err = generate.FromProfile(p, 3, generate.MethodTargeting, rand.New(rand.NewSource(1)))
	if err == nil || g != nil || !strings.Contains(err.Error(), "(2,2)") {
		t.Fatalf("FromProfile(d=3) = %v, %v; want no graph and an error naming (2,2)", g, err)
	}
}
