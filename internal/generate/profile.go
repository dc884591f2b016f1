package generate

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dk"
	"repro/internal/graph"
)

// Method selects a construction algorithm family (Section 4.1).
type Method int

// Construction methods. Not every (method, depth) pair exists: the paper
// proves no pseudograph/matching generalization beyond d = 2 and
// randomizing rewiring needs an original graph, not just a distribution.
const (
	// MethodStochastic connects node pairs independently with
	// depth-specific probabilities (supported for d = 0, 1, 2).
	MethodStochastic Method = iota
	// MethodPseudograph is the configuration model family
	// (d = 1, 2); the result is the giant connected component per the
	// paper's recipe.
	MethodPseudograph
	// MethodMatching is loop-avoiding stub matching (d = 1, 2),
	// realizing the target distribution exactly.
	MethodMatching
	// MethodTargeting bootstraps a (d−1)K graph and applies dK-targeting
	// (d−1)K-preserving rewiring (d = 1, 2, 3).
	MethodTargeting
)

var methodNames = []string{"stochastic", "pseudograph", "matching", "targeting"}

// String names the method as the wire does.
func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod maps a wire method name to a construction method for
// depth d and is the one place §4's availability rule lives: only
// targeting builds a d = 3 graph from a distribution. "randomize" (and
// "", its default) is dK-preserving rewiring of the source graph; it is
// flagged separately because it needs the graph, not just the profile,
// and exists at every depth.
func ParseMethod(name string, d int) (m Method, randomize bool, err error) {
	if name == "" || name == "randomize" {
		return 0, true, nil
	}
	if m = Method(slices.Index(methodNames, name)); m < 0 {
		return 0, false, fmt.Errorf("unknown method %q (want randomize|stochastic|pseudograph|matching|targeting)", name)
	}
	if d == 3 && m != MethodTargeting {
		return 0, false, errors.New("d=3 generation from a distribution supports only method=targeting or method=randomize")
	}
	return m, false, nil
}

// FromProfile constructs a random graph with property P_d of the
// profile, using the requested method and drawing from rng. The profile
// must have been extracted to depth >= d. At d = 0 every method is the
// stochastic G(n,p) construction.
func FromProfile(p *dk.Profile, d int, method Method, rng *rand.Rand) (*graph.CSR, error) {
	if p.D < d {
		return nil, fmt.Errorf("generate: profile depth %d < requested %d", p.D, d)
	}
	opt := Options{Rng: rng}
	switch {
	case d == 0:
		return Stochastic0K(p.N, p.AvgDegree, opt)
	case d == 1 && method == MethodStochastic:
		return Stochastic1K(p.Degrees, opt)
	case d == 1 && method == MethodPseudograph:
		res, err := Pseudograph1K(p.Degrees, opt)
		if err != nil {
			return nil, err
		}
		return res.GCC, nil
	case d == 1 && method == MethodMatching:
		return Matching1K(p.Degrees, opt)
	case d == 1 && method == MethodTargeting:
		start, err := Stochastic0K(p.N, p.AvgDegree, opt)
		if err != nil {
			return nil, err
		}
		return target(start, p, 1, rng)
	case d == 2 && method == MethodStochastic:
		return Stochastic2K(p.Joint, opt)
	case d == 2 && method == MethodPseudograph:
		res, err := Pseudograph2K(p.Joint, opt)
		if err != nil {
			return nil, err
		}
		return res.GCC, nil
	case d == 2 && method == MethodMatching:
		return Matching2K(p.Joint, opt)
	case d == 2 && method == MethodTargeting:
		// Paper §5.1: bootstrap a 1K-random graph, then apply 2K-targeting
		// 1K-preserving rewiring. Matching realizes the degree sequence
		// exactly (pseudograph GCC extraction loses leaf-heavy graphs'
		// nodes, leaving the JDD target unreachable); fall back to the
		// full simplified pseudograph when matching deadlocks.
		start, err := Matching1K(p.Degrees, opt)
		if err != nil {
			res, err2 := Pseudograph1K(p.Degrees, opt)
			if err2 != nil {
				return nil, err
			}
			start = res.Full
		}
		return target(start, p, 2, rng)
	case d == 3 && method == MethodTargeting:
		// Paper §5.1: 2K-random bootstrap, then 3K-targeting
		// 2K-preserving rewiring. Matching realizes the JDD exactly, or
		// errors on a JDD no graph realizes.
		start, err := Matching2K(p.Joint, opt)
		if err != nil {
			return nil, err
		}
		return target(start, p, 3, rng)
	default:
		return nil, fmt.Errorf("generate: unsupported (depth=%d, method=%s)", d, method)
	}
}

// target runs dK-targeting rewiring from start until the profile's
// depth-d distribution is reached or the default budget runs out.
func target(start *graph.CSR, p *dk.Profile, d int, rng *rand.Rand) (*graph.CSR, error) {
	res, err := TargetRewire(start, p, d, TargetOptions{Rng: rng, StopAtZero: true})
	if err != nil {
		return nil, err
	}
	return res.FinalGraph, nil
}
