package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/datasets"
	dkprof "repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/pkg/dkapi"
)

// Operation kinds of a workload step: the pkg/dk calls a user makes
// after dk.ReadGraph, which every session runs first.
const (
	opExtract  = "extract"
	opGenerate = "generate"
	opCompare  = "compare"
	opSimulate = "simulate"
)

// step is one pkg/dk call of a session. Compare and Simulate take the
// replicas of the session's first randomize step: Compare the source
// against replica 0, Simulate the source and the whole ensemble.
type step struct {
	op        string
	d         int
	method    string // generate only: randomize, targeting or pseudograph
	replicas  int
	compare   bool // generate only: report each replica's D_d to the source
	metrics   bool // extract only
	spectral  bool // extract and compare
	scenarios []dkapi.ScenarioSpec
}

// workload is a closed loop: one client runs sessions one after the
// other, each a fresh dk.Session over its own input, issuing the steps
// in order. A session is one run of the workflow on its own input.
type workload struct {
	name     string
	sessions int
	// input synthesizes the topology of one session from its seed.
	input func(seed int64) (*graph.CSR, error)
	steps []step
	// ingestRepeats and extractRepeats are how many times a session
	// times its ReadGraph and its Extract calls: they are short next to
	// the session, so one sample each is too noisy. extractRepeats is at
	// most ingestRepeats, since every Extract needs a ReadGraph first.
	ingestRepeats, extractRepeats int
}

// simulateScenarios is the behavioural check of the paper's §5:
// targeted-attack percolation, SI spreading and greedy routing.
var simulateScenarios = []dkapi.ScenarioSpec{
	{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0.01, 0.02, 0.05, 0.1, 0.2}, Targeted: true},
	{Kind: dkapi.ScenarioEpidemic, Beta: 0.1, Rounds: 16},
	{Kind: dkapi.ScenarioRouting, Pairs: 64},
}

var workloads = []workload{
	{
		// The paper's "d=2 suffices" workflow: measure with exact-BFS
		// metrics and the spectrum, build 2K-random graphs by rewiring
		// and by JDD targeting, and compare and simulate them.
		name:     "skitter_d2",
		sessions: 12,
		input:    func(seed int64) (*graph.CSR, error) { return skitter(1500, shape{2937, 157742, 3950}, seed) },
		steps: []step{
			{op: opExtract, d: 2, metrics: true, spectral: true},
			{op: opGenerate, d: 2, method: "randomize", replicas: 8, compare: true},
			{op: opGenerate, d: 2, method: "targeting", replicas: 2, compare: true},
			{op: opCompare, d: 2, spectral: true},
			{op: opSimulate, scenarios: simulateScenarios},
		},
		ingestRepeats:  5,
		extractRepeats: 5,
	},
	{
		// The 3K workflow: both census-delta engines (Tracker under
		// randomizing rewiring, map Delta under targeting); no metrics.
		name:     "skitter_d3",
		sessions: 9,
		input:    func(seed int64) (*graph.CSR, error) { return skitter(1000, shape{1844, 69166, 2000}, seed) },
		steps: []step{
			{op: opExtract, d: 3},
			{op: opGenerate, d: 3, method: "randomize", replicas: 4, compare: true},
			{op: opGenerate, d: 3, method: "targeting", replicas: 2, compare: true},
		},
		ingestRepeats:  9,
		extractRepeats: 9,
	},
	{
		// Ingest, the census and single-replica rewiring at a size whose
		// working set is far out of cache, and the sampled-distance path
		// above metrics.AutoSampleThreshold. No fan-out, no targeting.
		name:     "powerlaw_scale",
		sessions: 1,
		input:    func(seed int64) (*graph.CSR, error) { return powerLaw(120000, shape{274787, 38079629, 0}, seed) },
		steps: []step{
			{op: opExtract, d: 3},
			{op: opGenerate, d: 2, method: "pseudograph", replicas: 1},
			{op: opGenerate, d: 2, method: "randomize", replicas: 1, compare: true},
			{op: opExtract, d: 1, metrics: true},
		},
		ingestRepeats:  5,
		extractRepeats: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sessionSeed derives session i's seed from the run seed; stepSeed
// derives the generation seed of step j of a session.
func sessionSeed(seed int64, i int) int64     { return parallel.SubSeed(seed, i) }
func stepSeed(sessionSeed int64, j int) int64 { return parallel.SubSeed(sessionSeed, 1000+j) }

// setup synthesizes every session's input and serializes it to the
// edge-list bytes a user would hand to dk.ReadGraph. It returns the time
// each input took.
func setup(w workload, seed int64) ([][]byte, []float64, error) {
	out := make([][]byte, w.sessions)
	times := make([]float64, w.sessions)
	for i := range out {
		start := time.Now()
		g, err := w.input(sessionSeed(seed, i))
		if err != nil {
			return nil, nil, fmt.Errorf("session %d input: %w", i, err)
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			return nil, nil, err
		}
		out[i] = buf.Bytes()
		times[i] = time.Since(start).Seconds()
	}
	return out, times, nil
}

// shape is the amount of work an input topology carries: its edge
// count, which rewiring and ingest scale with, its wedge count
// Σ k(k−1)/2, which the census, targeting and 3K rewiring scale with,
// and its triangle count, which the census's size follows. Heavy-tailed
// degree sequences make the wedge count vary several-fold between
// seeds, so each workload fixes the shape of its inputs: a seed draws
// candidate degree sequences and builds its input from the one whose
// shape is closest to the workload's. The targets are the medians of
// the candidate distribution. The triangle count is known only once a
// topology is built; only skitter inputs check it.
type shape struct{ m, wedges, triangles float64 }

func shapeOf(degrees []int) shape {
	var s shape
	for _, k := range degrees {
		s.m += float64(k) / 2
		s.wedges += float64(k) * float64(k-1) / 2
	}
	return s
}

// distance is the summed log ratio of the two shapes' counts.
func (s shape) distance(o shape) float64 {
	return math.Abs(math.Log(s.m/o.m)) + math.Abs(math.Log(s.wedges/o.wedges))
}

// powerLawSequence draws a graphical power-law degree sequence with
// γ=2, as datasets.Skitter and cmd/dkbench do.
func powerLawSequence(rng *rand.Rand, n, kMax int) ([]int, error) {
	pl, err := stats.NewPowerLaw(2.0, 1, kMax)
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt <= 100; attempt++ {
		if seq := pl.DegreeSequence(rng, n); dkprof.Graphical(seq) {
			return seq, nil
		}
	}
	return nil, fmt.Errorf("n=%d: no graphical power-law degree sequence", n)
}

// closestSeeds returns the seeds of count candidate sequences, derived
// from seed, ordered by how close their shape is to want.
func closestSeeds(seed int64, count int, want shape, draw func(rng *rand.Rand) ([]int, error)) ([]int64, error) {
	type cand struct {
		seed int64
		dist float64
	}
	cands := make([]cand, count)
	for i := range cands {
		s := parallel.SubSeed(seed, i)
		seq, err := draw(rand.New(rand.NewSource(s)))
		if err != nil {
			return nil, err
		}
		cands[i] = cand{s, shapeOf(seq).distance(want)}
	}
	slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.dist, b.dist) })
	out := make([]int64, count)
	for i, c := range cands {
		out[i] = c.seed
	}
	return out, nil
}

// skitter builds a datasets.Skitter topology of target size n and shape
// close to want. The candidate sequences repeat datasets.Skitter's own
// first draw (γ=2, k_max=n/4), so the closest candidate's seed yields a
// topology of that shape. Its giant component is then checked, since
// the generator occasionally leaves only about half the nodes in it,
// and its triangle count, which in about one topology of five comes out
// at a third of the others'.
func skitter(n int, want shape, seed int64) (*graph.CSR, error) {
	seeds, err := closestSeeds(seed, 64, want, func(rng *rand.Rand) ([]int, error) {
		return powerLawSequence(rng, n, max(n/4, 3))
	})
	if err != nil {
		return nil, err
	}
	for _, s := range seeds[:32] {
		g, err := datasets.Skitter(datasets.SkitterConfig{N: n, Seed: s})
		if err != nil {
			return nil, err
		}
		got := shapeOf(g.DegreeSequence())
		got.triangles = float64(metrics.Triangles(g.Static()).Total)
		if g.N() >= n*85/100 && math.Abs(math.Log(got.wedges/want.wedges)) < 0.25 &&
			math.Abs(math.Log(got.triangles/want.triangles)) < 0.15 {
			return g, nil
		}
	}
	return nil, fmt.Errorf("skitter n=%d: no candidate of the wanted shape", n)
}

// powerLaw is the huge-tier topology of cmd/dkbench: an un-steered
// power law with γ=2 and k_max=3√n, built by Matching1K, then its giant
// component; the degree sequence is the candidate closest to want.
func powerLaw(n int, want shape, seed int64) (*graph.CSR, error) {
	kMax := int(3 * math.Sqrt(float64(n)))
	seeds, err := closestSeeds(seed, 16, want, func(rng *rand.Rand) ([]int, error) {
		return powerLawSequence(rng, n, kMax)
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seeds[0]))
	seq, err := powerLawSequence(rng, n, kMax)
	if err != nil {
		return nil, err
	}
	g, err := generate.Matching1K(dkprof.NewDegreeDist(seq), generate.Options{Rng: rng})
	if err != nil {
		return nil, err
	}
	g, _ = graph.GiantComponent(g)
	return g, nil
}
