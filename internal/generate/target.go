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
	// Temperature T of the Metropolis acceptance rule. 0 (the default)
	// is the paper's zero-temperature targeting: only improving moves
	// are accepted.
	Temperature float64
	// Anneal, when positive, multiplies the temperature by this factor
	// every M proposals (a simple geometric cooling schedule); used for
	// the ergodicity experiments of the paper's §4.1.4.
	Anneal float64
	// MaxAttempts bounds the number of proposals (default 200·M).
	MaxAttempts int
	// StopAtZero stops as soon as the distance reaches zero.
	StopAtZero bool
	// Patience aborts after this many consecutive proposals without an
	// accepted move (default 20·M); zero-temperature greedy search stalls
	// once no single swap improves the distance.
	Patience int
}

// StopReason says why a targeting run ended.
type StopReason int

// The ways a targeting run ends.
const (
	// StopMaxAttempts: the proposal budget ran out.
	StopMaxAttempts StopReason = iota
	// StopZero: the distance reached zero with StopAtZero set.
	StopZero
	// StopPatience: Patience consecutive proposals went unaccepted.
	StopPatience
)

// String names the reason as the benchmark and trace spans do.
func (s StopReason) String() string {
	switch s {
	case StopZero:
		return "zero"
	case StopPatience:
		return "patience"
	default:
		return "max_attempts"
	}
}

// TargetResult reports a targeting run.
type TargetResult struct {
	Stats         RewireStats
	InitialD      float64
	FinalD        float64
	FinalGraph    *graph.CSR
	TemperatureAt float64    // temperature when the run stopped
	Stop          StopReason // why the run stopped
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
// is the corresponding D_d. The run tracks D_d as InitialD plus the
// committed objective deltas; FinalD is read from the objective once, at
// the end.
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
	out := g.Clone()
	r, err := NewRewirer(out, d-1, opt.Rng)
	if err != nil {
		return nil, err
	}
	if err := obj.Init(out); err != nil {
		return nil, err
	}
	r.Obj = obj

	temp := opt.Temperature
	r.Accept = PolicyMetropolis(temp)
	maxAttempts := opt.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200 * g.M()
	}
	patience := opt.Patience
	if patience == 0 {
		patience = 20 * g.M()
	}
	res := &TargetResult{InitialD: obj.Current(), FinalGraph: out, Stop: StopMaxAttempts}

	sinceAccept := 0
	annealEvery := g.M()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if opt.Anneal > 0 && attempt > 0 && attempt%annealEvery == 0 {
			temp *= opt.Anneal
			r.Accept = PolicyMetropolis(temp)
		}
		ok, err := r.Step()
		if err != nil {
			return nil, err
		}
		if ok {
			sinceAccept = 0
			if opt.StopAtZero && res.InitialD+r.objSum == 0 {
				res.Stop = StopZero
				break
			}
		} else {
			sinceAccept++
			if sinceAccept >= patience {
				res.Stop = StopPatience
				break
			}
		}
	}
	res.Stats = r.Stats
	res.FinalD = obj.Current()
	res.TemperatureAt = temp
	return res, nil
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
	// (default 20·M).
	Patience int
}

// ExploreResult reports an exploration run.
type ExploreResult struct {
	Stats      RewireStats
	FinalGraph *graph.CSR
}

// Explore performs the paper's dK-space exploration on a copy of g:
// dK-preserving rewiring accepting only moves that push the chosen scalar
// metric in the requested direction, producing extreme (non-random)
// dK-graphs.
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
	out := g.Clone()
	r, err := NewRewirer(out, metric.preserveDepth(), opt.Rng)
	if err != nil {
		return nil, err
	}
	if err := obj.Init(out); err != nil {
		return nil, err
	}
	r.Obj = obj
	if opt.Maximize {
		r.Accept = PolicyMaximize
	} else {
		r.Accept = PolicyMinimize
	}
	maxAttempts := opt.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200 * g.M()
	}
	patience := opt.Patience
	if patience == 0 {
		patience = 20 * g.M()
	}
	res := &ExploreResult{FinalGraph: out}
	sinceAccept := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		ok, err := r.Step()
		if err != nil {
			return nil, err
		}
		if ok {
			sinceAccept = 0
		} else {
			sinceAccept++
			if sinceAccept >= patience {
				break
			}
		}
	}
	res.Stats = r.Stats
	return res, nil
}
