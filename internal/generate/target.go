package generate

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/graph"
)

// TargetOptions configures dK-targeting d′K-preserving rewiring
// (Metropolis dynamics, Section 4.1.4).
type TargetOptions struct {
	Rng *rand.Rand
	// Temperature T of the Metropolis acceptance rule, fixed for the
	// whole run. 0 (the default) is the paper's zero-temperature
	// targeting, which it found sufficient: only improving moves are
	// accepted.
	Temperature float64
	// MaxAttempts bounds the number of proposals (default 200·M).
	MaxAttempts int
	// StopAtZero stops as soon as the distance reaches zero, or before
	// the first proposal if it starts there.
	StopAtZero bool
	// Patience stops after this many consecutive proposals without an
	// accepted move (default 20·M; negative disables); zero-temperature
	// greedy search stalls once no single swap improves the distance.
	Patience int
}

// StopReason says why a rewiring run ended.
type StopReason int

// The ways a rewiring run ends.
const (
	// StopMaxAttempts: the proposal budget ran out.
	StopMaxAttempts StopReason = iota
	// StopZero: the distance reached zero with StopAtZero set.
	StopZero
	// StopPatience: Patience consecutive proposals went unaccepted.
	StopPatience
	// StopHook: the Rewirer's OnSweep hook stopped the run.
	StopHook
)

// String names the reason as the benchmark and trace spans do.
func (s StopReason) String() string {
	switch s {
	case StopZero:
		return "zero"
	case StopPatience:
		return "patience"
	case StopHook:
		return "hook"
	default:
		return "max_attempts"
	}
}

// TargetResult reports a targeting run.
type TargetResult struct {
	Stats      RewireStats
	InitialD   float64
	FinalD     float64
	FinalGraph *graph.CSR
	Stop       StopReason // why the run stopped
}

// targetObjective is an Objective that can also report its distance to
// the target, D_d.
type targetObjective interface {
	Objective
	Current() float64
}

// TargetRewire rewires a copy of g toward the target profile's
// dK-distribution at depth d, using d′K-preserving moves with d′ = d−1
// (the paper's combinations: 1K-targeting 0K-preserving, 2K-targeting
// 1K-preserving, 3K-targeting 2K-preserving). The distance driven to zero
// is the corresponding D_d. It is one Run of Metropolis acceptance at
// opt.Temperature, which tracks D_d as InitialD plus the committed
// objective deltas for StopAtZero and reports why it stopped; FinalD is
// read from the objective once, at the end. With StopAtZero, a start
// already at distance zero returns at once: no attempt, Stop = StopZero,
// and FinalGraph an unchanged clone.
func TargetRewire(g *graph.CSR, target *dk.Profile, d int, opt TargetOptions) (*TargetResult, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("generate: TargetRewire requires Rng")
	}
	if d < 1 || d > 3 {
		return nil, fmt.Errorf("generate: targeting depth %d outside 1..3", d)
	}
	if target.D < d {
		return nil, fmt.Errorf("generate: target profile has depth %d; need >= %d", target.D, d)
	}
	var obj targetObjective
	switch d {
	case 1:
		obj = NewDegreeDistObjective(target.Degrees)
	case 2:
		obj = NewJDDObjective(target.Joint)
	case 3:
		obj = NewCensusObjective(target.Census)
	}
	r, err := newScored(g, d-1, opt.Rng, obj, PolicyMetropolis(opt.Temperature))
	if err != nil {
		return nil, err
	}
	res := &TargetResult{InitialD: obj.Current(), FinalGraph: r.G}
	r.stopAtZero, r.zeroAt = opt.StopAtZero, res.InitialD
	if res.Stats, err = r.runScored(opt.MaxAttempts, opt.Patience); err != nil {
		return nil, err
	}
	res.FinalD, res.Stop = obj.Current(), r.stop
	return res, nil
}

// newScored returns a Rewirer over a clone of g at the given depth, with
// obj initialised on the clone and accept deciding from its deltas.
func newScored(g *graph.CSR, depth int, rng *rand.Rand, obj Objective, accept Policy) (*Rewirer, error) {
	r, err := NewRewirer(g.Clone(), depth, rng)
	if err != nil {
		return nil, err
	}
	if err := obj.Init(r.G); err != nil {
		return nil, err
	}
	r.Obj, r.Accept = obj, accept
	return r, nil
}

// runScored runs r for up to maxAttempts proposals (default 200·M),
// stopping after patience consecutive rejections (default 20·M; negative
// disables): the budget of targeting and exploration.
func (r *Rewirer) runScored(maxAttempts, patience int) (RewireStats, error) {
	if maxAttempts == 0 {
		maxAttempts = 200 * r.G.M()
	}
	if patience == 0 {
		patience = 20 * r.G.M()
	}
	return r.Run(0, maxAttempts, patience)
}

// ExploreMetric selects the scalar functional driven by Explore.
type ExploreMetric int

// The exploration metrics of Section 4.3.
const (
	// MetricLikelihood is S = Σ_E d_u·d_v; defined by P2, explored under
	// 1K-preserving rewiring.
	MetricLikelihood ExploreMetric = iota
	// MetricS2 is the second-order likelihood; defined by P3, explored
	// under 2K-preserving rewiring.
	MetricS2
	// MetricClustering is mean clustering C̄; defined by P3, explored
	// under 2K-preserving rewiring.
	MetricClustering
)

// preserveDepth returns the rewiring depth that keeps the metric's
// defining dK-distribution fixed.
func (m ExploreMetric) preserveDepth() int {
	if m == MetricLikelihood {
		return 1
	}
	return 2
}

// ExploreOptions configures dK-space exploration.
type ExploreOptions struct {
	Rng *rand.Rand
	// Maximize selects the extremization direction.
	Maximize bool
	// MaxAttempts bounds proposals (default 200·M).
	MaxAttempts int
	// Patience stops after this many consecutive rejections
	// (default 20·M; negative disables).
	Patience int
	// OnSweep is passed to the Rewirer: called once per M attempts, it
	// may stop the run (see Rewirer.OnSweep).
	OnSweep func(*Rewirer) bool
}

// ExploreResult reports an exploration run.
type ExploreResult struct {
	Stats      RewireStats
	FinalGraph *graph.CSR
}

// Explore performs the paper's dK-space exploration on a copy of g:
// dK-preserving rewiring accepting only moves that push the chosen scalar
// metric in the requested direction, producing extreme (non-random)
// dK-graphs. It is one Run with no acceptance target.
func Explore(g *graph.CSR, metric ExploreMetric, opt ExploreOptions) (*ExploreResult, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("generate: Explore requires Rng")
	}
	var obj Objective
	switch metric {
	case MetricLikelihood:
		obj = &LikelihoodObjective{}
	case MetricS2:
		obj = &S2Objective{}
	case MetricClustering:
		obj = &ClusteringObjective{}
	default:
		return nil, fmt.Errorf("generate: unknown exploration metric %d", metric)
	}
	accept := PolicyMinimize
	if opt.Maximize {
		accept = PolicyMaximize
	}
	r, err := newScored(g, metric.preserveDepth(), opt.Rng, obj, accept)
	if err != nil {
		return nil, err
	}
	r.OnSweep = opt.OnSweep
	st, err := r.runScored(opt.MaxAttempts, opt.Patience)
	if err != nil {
		return nil, err
	}
	return &ExploreResult{Stats: st, FinalGraph: r.G}, nil
}
