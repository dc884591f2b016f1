package metrics

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/spectral"
)

// Summary bundles the scalar metrics reported in Tables 2–8 of the paper.
// The JSON field names are part of the HTTP service's public API
// (docs/API.md); being a flat struct, the encoding is stable as-is.
type Summary struct {
	N         int     `json:"n"`
	M         int     `json:"m"`
	AvgDegree float64 `json:"avg_degree"` // k̄
	R         float64 `json:"r"`          // assortativity coefficient r
	CBar      float64 `json:"c_bar"`      // mean clustering C̄
	DBar      float64 `json:"d_bar"`      // average distance d̄
	SigmaD    float64 `json:"sigma_d"`    // std-dev of the distance distribution σd
	S         float64 `json:"s"`          // likelihood Σ d_u·d_v over edges
	S2        float64 `json:"s2"`         // second-order likelihood
	Lambda1   float64 `json:"lambda1"`    // smallest nonzero eigenvalue of the normalized Laplacian
	LambdaN   float64 `json:"lambda_n"`   // largest eigenvalue of the normalized Laplacian
}

// AutoSampleThreshold is the node count above which Summarize (and
// AutoBetweenness) switch from the exact all-sources BFS pass to
// sampling with AutoSampleSources sources. Exact distances are Θ(N·M);
// past ~10⁵ nodes that dwarfs every other scalar in the suite, so the
// sampled estimator becomes the default on the million-node path. A
// variable rather than a constant so tests can pin the boundary.
var AutoSampleThreshold = 100_000

// AutoSampleSources is the BFS source budget the automatic switch uses.
// 256 sources keep d̄ and σd within a fraction of a percent on the
// paper-scale topologies while costing 256 BFS passes instead of N.
const AutoSampleSources = 256

// SummaryOptions tunes the potentially expensive parts of Summarize.
type SummaryOptions struct {
	// Spectral enables λ1/λ_{n−1} computation (requires a connected graph).
	Spectral bool
	// DistanceSources bounds the number of BFS sources for the distance
	// distribution; 0 means automatic — exact up to AutoSampleThreshold
	// nodes, AutoSampleSources sampled sources above it (when an Rng is
	// available). Negative, or ExactDistances, forces exact.
	DistanceSources int
	// ExactDistances opts out of the automatic sampling switch: the
	// distance pass stays exact no matter the graph size.
	ExactDistances bool
	// SkipS2 leaves the second-order likelihood at zero. S2 shares C̄'s
	// triangle pass, so skipping it saves only its O(m) wedge sums.
	SkipS2 bool
	// Rng drives sampling and the Lanczos start vector; required when
	// DistanceSources > 0 or Spectral is set.
	Rng *rand.Rand
}

// Summarize computes the scalar metric suite on s. Metrics in the paper
// are reported for giant connected components; pass the GCC.
func Summarize(s *graph.CSR, opt SummaryOptions) (Summary, error) {
	// One triangle pass serves both C̄ and S2.
	ts := Triangles(s)
	sum := Summary{
		N:         s.N(),
		M:         s.M(),
		AvgDegree: s.AvgDegree(),
		R:         Assortativity(s),
		CBar:      meanClustering(s, ts),
		S:         LikelihoodS(s),
	}
	if !opt.SkipS2 {
		sum.S2 = s2(s, ts)
	}
	var dd *DistanceDistribution
	switch {
	case opt.DistanceSources > 0:
		if opt.Rng == nil {
			return sum, fmt.Errorf("metrics: DistanceSources > 0 requires Rng")
		}
		dd = SampledDistances(s, opt.DistanceSources, opt.Rng)
	case opt.DistanceSources == 0 && !opt.ExactDistances &&
		s.N() > AutoSampleThreshold && opt.Rng != nil:
		// Automatic switch: exact distances are Θ(N·M) and would dominate
		// the whole summary; callers that need the exact value set
		// ExactDistances (or a negative DistanceSources).
		dd = SampledDistances(s, AutoSampleSources, opt.Rng)
	default:
		dd = Distances(s)
	}
	sum.DBar = dd.Mean()
	sum.SigmaD = dd.StdDev()
	if opt.Spectral {
		rng := opt.Rng
		if rng == nil {
			return sum, fmt.Errorf("metrics: Spectral requires Rng")
		}
		l1, ln, err := spectral.Extremes(s, rng, 0)
		if err != nil {
			return sum, fmt.Errorf("metrics: spectrum: %w", err)
		}
		sum.Lambda1, sum.LambdaN = l1, ln
	}
	return sum, nil
}

// MeanSummaries averages a set of summaries field-wise (integer fields are
// averaged and rounded); used for the "average over 100 graphs" rows of
// the paper's tables.
func MeanSummaries(ss []Summary) Summary {
	if len(ss) == 0 {
		return Summary{}
	}
	var out Summary
	nf := float64(len(ss))
	var n, m float64
	for _, s := range ss {
		n += float64(s.N)
		m += float64(s.M)
		out.AvgDegree += s.AvgDegree
		out.R += s.R
		out.CBar += s.CBar
		out.DBar += s.DBar
		out.SigmaD += s.SigmaD
		out.S += s.S
		out.S2 += s.S2
		out.Lambda1 += s.Lambda1
		out.LambdaN += s.LambdaN
	}
	out.N = int(n/nf + 0.5)
	out.M = int(m/nf + 0.5)
	out.AvgDegree /= nf
	out.R /= nf
	out.CBar /= nf
	out.DBar /= nf
	out.SigmaD /= nf
	out.S /= nf
	out.S2 /= nf
	out.Lambda1 /= nf
	out.LambdaN /= nf
	return out
}
