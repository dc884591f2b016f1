package datasets

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// skitterChunked is Skitter as it was built before exploration became one
// chain: each stage runs exploreUntilChunked. It is the reference
// TestSkitterOneChainMatchesChunked holds Skitter to, and it counts how
// each stage ended in ends.
func skitterChunked(cfg SkitterConfig, ends map[string]int) (*graph.CSR, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	kMax := cfg.N / 4
	if kMax < 3 {
		kMax = 3
	}
	pl, err := stats.NewPowerLaw(cfg.Gamma, 1, kMax)
	if err != nil {
		return nil, err
	}
	var seq []int
	for attempt := 0; ; attempt++ {
		seq = pl.DegreeSequence(rng, cfg.N)
		if dk.Graphical(seq) {
			break
		}
		if attempt > 100 {
			return nil, fmt.Errorf("datasets: could not draw a graphical power-law sequence")
		}
	}
	g, err := generate.Matching1K(dk.NewDegreeDist(seq), generate.Options{Rng: rng})
	if err != nil {
		return nil, fmt.Errorf("datasets: skitter base: %w", err)
	}
	g, _ = graph.GiantComponent(g)
	end, err := exploreUntilChunked(g, generate.MetricLikelihood, false, rng, func() bool {
		return metrics.Assortativity(g) <= cfg.TargetR
	})
	if err != nil {
		return nil, err
	}
	ends["r/"+end]++
	end, err = exploreUntilChunked(g, generate.MetricClustering, true, rng, func() bool {
		return metrics.MeanClustering(g) >= cfg.TargetC
	})
	if err != nil {
		return nil, err
	}
	ends["c/"+end]++
	g, _ = graph.GiantComponent(g)
	return g, nil
}

// exploreUntilChunked is the chunked exploration loop: up to 60 Explore
// runs of 4·M attempts, each on a fresh clone with a fresh objective,
// with done() recounted from g between them. It reports how it ended:
// "done", "stall" (two chunks in a row without an accepted move) or
// "cap" (all 60 chunks ran).
func exploreUntilChunked(g *graph.CSR, metric generate.ExploreMetric, maximize bool, rng *rand.Rand, done func() bool) (string, error) {
	const chunks = 60
	chunk := 4 * g.M()
	prevAccepted := -1
	for i := 0; i < chunks; i++ {
		if done() {
			return "done", nil
		}
		res, err := generate.Explore(g, metric, generate.ExploreOptions{
			Rng:         rng,
			Maximize:    maximize,
			MaxAttempts: chunk,
			Patience:    chunk,
		})
		if err != nil {
			return "", err
		}
		*g = *res.FinalGraph
		if res.Stats.Accepted == 0 && prevAccepted == 0 {
			return "stall", nil
		}
		prevAccepted = res.Stats.Accepted
	}
	return "cap", nil
}

// TestSkitterOneChainMatchesChunked pins Skitter's one-chain exploration
// to the chunked loop it replaced: the same nodes and the same edge list,
// in EdgeAt order, over a sweep of sizes and seeds. Unreachable targets
// make the stall rule and the 60-window cap end stages too. (The sweep
// has no N=20000 case: Skitter{N: 20000, Seed: 1} fails in Matching1K
// with a matching deadlock before exploration starts.)
func TestSkitterOneChainMatchesChunked(t *testing.T) {
	var cfgs []SkitterConfig
	for _, n := range []int{300, 400, 1000, 1500} {
		for seed := int64(1); seed <= 6; seed++ {
			cfgs = append(cfgs, SkitterConfig{N: n, Seed: seed})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfgs = append(cfgs,
			SkitterConfig{N: 300, Seed: seed, TargetC: 0.99},
			SkitterConfig{N: 400, Seed: seed, TargetR: -0.99},
			SkitterConfig{N: 300, Seed: seed, TargetR: -0.99, TargetC: 0.99},
		)
	}
	if !testing.Short() {
		cfgs = append(cfgs, SkitterConfig{N: 4000, Seed: 1}, SkitterConfig{N: 4000, Seed: 2})
	}
	ends := map[string]int{}
	for _, cfg := range cfgs {
		name := fmt.Sprintf("N=%d/seed=%d/r=%v/c=%v", cfg.N, cfg.Seed, cfg.TargetR, cfg.TargetC)
		want, wantErr := skitterChunked(cfg, ends)
		got, err := Skitter(cfg)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, chunked reference %v", name, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.N() != want.N() {
			t.Fatalf("%s: N = %d, chunked reference %d", name, got.N(), want.N())
		}
		if !slices.Equal(got.Edges(), want.Edges()) {
			t.Fatalf("%s: edge list differs from the chunked reference", name)
		}
	}
	// Every way a stage can end must have ended one, or the sweep
	// does not cover it.
	for _, end := range []string{"r/done", "c/done", "r/stall", "c/stall", "c/cap"} {
		if ends[end] == 0 {
			t.Errorf("no stage ended as %s: %v", end, ends)
		}
	}
	t.Logf("stage ends: %v", ends)
}
