package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// ScaleSmall shrinks the reference graphs (~1200-node skitter-like,
	// default HOT) so the full suite runs in minutes on one core;
	// convergence shapes are unchanged.
	ScaleSmall Scale = iota
	// ScalePaper uses the paper's sizes (9204-node skitter-like,
	// 939-node HOT).
	ScalePaper
)

// Config parametrizes an experiment run.
type Config struct {
	Scale Scale
	// Seeds is the number of generated graphs averaged per table cell
	// (the paper uses 100; defaults: 3 small, 5 paper).
	Seeds int
	// Seed is the base RNG seed; every derived generator seeds from it.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		if c.Scale == ScalePaper {
			c.Seeds = 5
		} else {
			c.Seeds = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Lab caches the reference topologies and their profiles across the
// experiments of one run. All methods are safe for concurrent use:
// experiments and averaging seeds fan out over the worker pool, and the
// caches are built exactly once (sync.OnceValues) no matter how many
// goroutines ask first — errors are cached alongside values.
type Lab struct {
	Cfg Config

	skitter        func() (*graph.CSR, error)
	skitterProfile func() (*dk.Profile, error)
	hot            func() (*graph.CSR, error)
	hotProfile     func() (*dk.Profile, error)
}

// NewLab prepares a lazily-populated lab.
func NewLab(cfg Config) *Lab {
	l := &Lab{Cfg: cfg.withDefaults()}
	l.skitter = sync.OnceValues(func() (*graph.CSR, error) {
		cfg := datasets.SkitterConfig{Seed: l.Cfg.Seed}
		if l.Cfg.Scale == ScalePaper {
			cfg = datasets.PaperScaleSkitter(l.Cfg.Seed)
		} else {
			cfg.N = 1200
		}
		g, err := datasets.Skitter(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: building skitter-like graph: %w", err)
		}
		return g, nil
	})
	l.skitterProfile = sync.OnceValues(func() (*dk.Profile, error) {
		g, err := l.Skitter()
		if err != nil {
			return nil, err
		}
		return dk.Extract(g, 3)
	})
	l.hot = sync.OnceValues(func() (*graph.CSR, error) {
		g, _, err := datasets.HOT(datasets.PaperScaleHOT(l.Cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: building HOT-like graph: %w", err)
		}
		return g, nil
	})
	l.hotProfile = sync.OnceValues(func() (*dk.Profile, error) {
		g, err := l.HOT()
		if err != nil {
			return nil, err
		}
		return dk.Extract(g, 3)
	})
	return l
}

// Rng derives a deterministic per-purpose random source.
func (l *Lab) Rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(l.Cfg.Seed*1_000_003 + purpose))
}

// Skitter returns the AS-like reference graph (GCC, connected).
func (l *Lab) Skitter() (*graph.CSR, error) { return l.skitter() }

// SkitterProfile returns the depth-3 dK-profile of the skitter-like graph.
func (l *Lab) SkitterProfile() (*dk.Profile, error) { return l.skitterProfile() }

// HOT returns the router-like reference graph (connected by
// construction).
func (l *Lab) HOT() (*graph.CSR, error) { return l.hot() }

// HOTProfile returns the depth-3 dK-profile of the HOT-like graph.
func (l *Lab) HOTProfile() (*dk.Profile, error) { return l.hotProfile() }

// summarizeGCC computes the scalar metrics of g's giant component.
func summarizeGCC(g *graph.CSR, spectral bool, rng *rand.Rand) (metrics.Summary, error) {
	gcc, _ := graph.GiantComponent(g)
	return metrics.Summarize(gcc, metrics.SummaryOptions{
		Spectral: spectral,
		Rng:      rng,
	})
}

// meanSummaryOver generates Seeds graphs via gen and averages their GCC
// summaries. The averaging seeds are independent — each derives its own
// rand.Rand from (purpose, seed index) — so they run concurrently on the
// worker pool; summaries land in a slice indexed by seed and are averaged
// in index order, making the mean identical at every worker count. gen
// must therefore be safe for concurrent calls (every generator in
// internal/generate is, given distinct Rngs).
func (l *Lab) meanSummaryOver(spectral bool, purpose int64, gen func(rng *rand.Rand) (*graph.CSR, error)) (metrics.Summary, error) {
	sums := make([]metrics.Summary, l.Cfg.Seeds)
	err := parallel.ForErr(l.Cfg.Seeds, func(s int) error {
		rng := l.Rng(purpose*1000 + int64(s))
		g, err := gen(rng)
		if err != nil {
			return err
		}
		sum, err := summarizeGCC(g, spectral, rng)
		if err != nil {
			return err
		}
		sums[s] = sum
		return nil
	})
	if err != nil {
		return metrics.Summary{}, err
	}
	return metrics.MeanSummaries(sums), nil
}
