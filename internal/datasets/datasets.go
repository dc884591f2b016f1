// Package datasets synthesizes the reference topologies the paper
// evaluates on. The originals (CAIDA skitter, RouteViews BGP, RIPE WHOIS,
// and the HOT router graph of Li et al.) are proprietary measurement data
// we cannot ship; these constructors reproduce their structural signatures
// — the properties the paper's experiments actually exercise — and are
// documented as substitutions in DESIGN.md.
//
//   - Skitter: an AS-like graph with a power-law degree sequence,
//     disassortative mixing and strong clustering, built with the
//     repository's own machinery (matching construction + likelihood-
//     minimizing and clustering-maximizing explorations).
//
//   - HOT: a router-like graph built as a heuristically-optimized
//     hierarchy: a sparse low-degree core mesh, mid-degree gateways, and
//     high-degree access routers at the periphery fanning out to
//     degree-1 hosts — the structure that makes degree-distribution-only
//     generators fail on it (the paper's central hard case).
package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// SkitterConfig parametrizes the AS-like topology. The zero value is
// replaced by defaults sized for fast experimentation; use PaperScale for
// the full-size graph.
type SkitterConfig struct {
	// N is the target node count (default 2000).
	N int
	// Gamma is the power-law exponent of the degree distribution
	// (default 2.0, giving k̄ in the 5–7 range of measured AS graphs).
	Gamma float64
	// TargetR is the assortativity coefficient to steer toward
	// (default −0.24, the paper's skitter value).
	TargetR float64
	// TargetC is the mean clustering to steer toward (default 0.46).
	TargetC float64
	// Seed drives all randomness.
	Seed int64
}

func (c SkitterConfig) withDefaults() SkitterConfig {
	if c.N == 0 {
		c.N = 2000
	}
	if c.Gamma == 0 {
		c.Gamma = 2.0
	}
	if c.TargetR == 0 {
		c.TargetR = -0.24
	}
	if c.TargetC == 0 {
		c.TargetC = 0.46
	}
	return c
}

// PaperScaleSkitter returns the configuration matching the paper's
// skitter graph size (9204 nodes).
func PaperScaleSkitter(seed int64) SkitterConfig {
	return SkitterConfig{N: 9204, Seed: seed}
}

// Skitter synthesizes the AS-like reference topology: a connected simple
// graph whose degree sequence follows a truncated power law and whose
// mixing and clustering are steered to the configured targets by
// dK-machinery (S-minimizing 1K exploration, then C̄-maximizing 2K
// exploration — which preserves the degree distribution and JDD shape
// reached so far).
func Skitter(cfg SkitterConfig) (*graph.CSR, error) {
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

	// Steer assortativity down (disassortative hubs-to-leaves mixing) by
	// minimizing the likelihood S.
	if err := exploreUntil(g, generate.MetricLikelihood, false, rng, func(g *graph.CSR, _ generate.Objective) bool {
		return metrics.Assortativity(g) <= cfg.TargetR
	}); err != nil {
		return nil, err
	}
	// Raise clustering to the target with 2K-preserving rewiring. Once the
	// chain runs, C̄ comes from its objective's running triangle counts.
	if err := exploreUntil(g, generate.MetricClustering, true, rng, func(g *graph.CSR, obj generate.Objective) bool {
		if c, ok := obj.(*generate.ClusteringObjective); ok {
			return metrics.MeanClusteringFrom(g, c.Triangles()) >= cfg.TargetC
		}
		return metrics.MeanClustering(g) >= cfg.TargetC
	}); err != nil {
		return nil, err
	}
	// Exploration can strand small components only if connectivity broke;
	// re-extract the GCC defensively.
	g, _ = graph.GiantComponent(g)
	return g, nil
}

// exploreUntil runs dK-preserving exploration on g in place, as one
// chain, until done reports the target reached or progress stalls. done
// sees g and a nil objective before the chain starts, then the chain's
// graph and objective at the end of every window of 4·M attempts. The
// chain stops after 60 windows, or after two windows in a row without an
// accepted move.
func exploreUntil(g *graph.CSR, metric generate.ExploreMetric, maximize bool, rng *rand.Rand, done func(*graph.CSR, generate.Objective) bool) error {
	if done(g, nil) {
		return nil
	}
	window := 4 * g.M()
	idle, last := 0, 0
	res, err := generate.Explore(g, metric, generate.ExploreOptions{
		Rng:         rng,
		Maximize:    maximize,
		MaxAttempts: 60 * window,
		Patience:    -1,
		OnSweep: func(r *generate.Rewirer) bool {
			if r.Stats.Attempts%window != 0 {
				return false
			}
			if r.Stats.Accepted == last {
				idle++
			} else {
				idle = 0
			}
			last = r.Stats.Accepted
			return idle == 2 || done(r.G, r.Obj)
		},
	})
	if err != nil {
		return err
	}
	// Explore works on a copy; adopt its result.
	*g = *res.FinalGraph
	return nil
}

// HOTConfig parametrizes the router-like topology.
type HOTConfig struct {
	// Hosts is the number of degree-1 end hosts (default 800).
	Hosts int
	// AccessRouters aggregate hosts (default 60); their degrees are drawn
	// from a skewed allocation so the hubs sit at the periphery.
	AccessRouters int
	// Gateways bridge access routers to the core (default 48).
	Gateways int
	// CoreSize is the number of low-degree core routers (default 12).
	CoreSize int
	// ExtraLinks adds redundant gateway–gateway/core links beyond the
	// tree, giving the ~5% cycle budget of the HOT graph (default 30).
	ExtraLinks int
	// Seed drives all randomness.
	Seed int64
}

func (c HOTConfig) withDefaults() HOTConfig {
	if c.Hosts == 0 {
		c.Hosts = 800
	}
	if c.AccessRouters == 0 {
		c.AccessRouters = 60
	}
	if c.Gateways == 0 {
		c.Gateways = 48
	}
	if c.CoreSize == 0 {
		c.CoreSize = 12
	}
	if c.ExtraLinks == 0 {
		c.ExtraLinks = 30
	}
	return c
}

// HOTRoles labels the hierarchy layer of each node of a HOT graph.
type HOTRoles struct {
	Core, Gateway, Access, Host []int
}

// HOT builds the router-like reference topology. Node layout: core ring
// with chords (low degree, center), gateways (each wired to two core
// nodes), access routers (each wired to one gateway), and hosts assigned
// to access routers by a Zipf-like skewed allocation — producing the
// HOT signature: k̄ ≈ 2, near-zero clustering, disassortative, and the
// highest-degree nodes at the periphery.
func HOT(cfg HOTConfig) (*graph.CSR, HOTRoles, error) {
	cfg = cfg.withDefaults()
	if cfg.CoreSize < 3 || cfg.Gateways < 1 || cfg.AccessRouters < 1 {
		return nil, HOTRoles{}, fmt.Errorf("datasets: HOT config too small: %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.CoreSize + cfg.Gateways + cfg.AccessRouters + cfg.Hosts
	g := graph.NewCSR(n)
	var roles HOTRoles

	// Core ring + chords.
	core := make([]int, cfg.CoreSize)
	for i := range core {
		core[i] = i
		roles.Core = append(roles.Core, i)
	}
	for i := range core {
		mustEdge(g, core[i], core[(i+1)%len(core)])
	}
	for i := 0; i < cfg.CoreSize/3; i++ {
		a := core[rng.Intn(len(core))]
		b := core[rng.Intn(len(core))]
		if a != b && !g.HasEdge(a, b) {
			mustEdge(g, a, b)
		}
	}

	// Gateways: each to one deterministic core node (balanced) plus the
	// extra-link budget adds redundancy later.
	gwBase := cfg.CoreSize
	for i := 0; i < cfg.Gateways; i++ {
		gw := gwBase + i
		roles.Gateway = append(roles.Gateway, gw)
		mustEdge(g, gw, core[i%len(core)])
	}

	// Access routers: each to one gateway.
	acBase := gwBase + cfg.Gateways
	for i := 0; i < cfg.AccessRouters; i++ {
		ac := acBase + i
		roles.Access = append(roles.Access, ac)
		mustEdge(g, ac, gwBase+i%cfg.Gateways)
	}

	// Hosts: skewed allocation over access routers — router i receives a
	// share ∝ 1/(i+1) (Zipf), so a handful of access routers become the
	// graph's highest-degree nodes.
	hostBase := acBase + cfg.AccessRouters
	weights := make([]float64, cfg.AccessRouters)
	var wSum float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		wSum += weights[i]
	}
	for h := 0; h < cfg.Hosts; h++ {
		host := hostBase + h
		roles.Host = append(roles.Host, host)
		x := rng.Float64() * wSum
		idx := 0
		for x > weights[idx] && idx < len(weights)-1 {
			x -= weights[idx]
			idx++
		}
		mustEdge(g, host, acBase+idx)
	}

	// Redundant links: gateway–gateway and gateway–core, giving the
	// small cycle budget of the original HOT graph.
	for added := 0; added < cfg.ExtraLinks; {
		var a, b int
		if rng.Intn(2) == 0 {
			a = gwBase + rng.Intn(cfg.Gateways)
			b = gwBase + rng.Intn(cfg.Gateways)
		} else {
			a = gwBase + rng.Intn(cfg.Gateways)
			b = core[rng.Intn(len(core))]
		}
		if a == b || g.HasEdge(a, b) {
			continue
		}
		mustEdge(g, a, b)
		added++
	}
	return g, roles, nil
}

// PaperScaleHOT returns a configuration sized like the paper's HOT graph
// (939 nodes, 988 edges): 12 core + 48 gateways + 60 access + 819 hosts
// = 939 nodes; 938 tree edges + extras ≈ 988.
func PaperScaleHOT(seed int64) HOTConfig {
	return HOTConfig{
		Hosts:         819,
		AccessRouters: 60,
		Gateways:      48,
		CoreSize:      12,
		ExtraLinks:    36,
		Seed:          seed,
	}
}

func mustEdge(g *graph.CSR, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("datasets: " + err.Error())
	}
}

// Paw returns the worked example graph from Section 3 of the paper: a
// triangle {0,1,2} with a pendant node 3 attached to node 2.
func Paw() *graph.CSR {
	g := graph.NewCSR(4)
	mustEdge(g, 0, 1)
	mustEdge(g, 1, 2)
	mustEdge(g, 0, 2)
	mustEdge(g, 2, 3)
	return g
}

// Petersen returns the Petersen graph (3-regular, girth 5), a standard
// metric-validation fixture.
func Petersen() *graph.CSR {
	g := graph.NewCSR(10)
	outer := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	inner := [][2]int{{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}}
	for _, e := range outer {
		mustEdge(g, e[0], e[1])
	}
	for _, e := range inner {
		mustEdge(g, e[0], e[1])
	}
	for i := 0; i < 5; i++ {
		mustEdge(g, i, i+5)
	}
	return g
}
