// Package dk defines the dK-series data model of the paper: the
// dK-distributions for d = 0..3 (average degree, degree distribution,
// joint degree distribution, and wedge/triangle distributions), their
// extraction from graphs, the inclusion identities P_d → P_{d−1}, the
// D_d distance metrics used by targeting rewiring, and rescaling of 1K/2K
// distributions to arbitrary graph sizes (the paper's §6 future work).
//
// Distributions are stored as integer subgraph counts (n(k), m(k1,k2),
// wedge/triangle counts) rather than normalized probabilities, following
// the paper's own convention in its worked example ("values of all
// distributions P are the total numbers of corresponding subgraphs");
// probability forms are available through accessor methods.
package dk

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// DegreeDist is the 1K-distribution in count form: n(k) nodes of degree k
// out of N total.
type DegreeDist struct {
	N     int
	Count map[int]int
}

// NewDegreeDist builds the distribution of the given degree sequence.
func NewDegreeDist(seq []int) *DegreeDist {
	dd := &DegreeDist{N: len(seq), Count: make(map[int]int)}
	for _, k := range seq {
		dd.Count[k]++
	}
	return dd
}

// P returns P(k) = n(k)/N.
func (dd *DegreeDist) P(k int) float64 {
	if dd.N == 0 {
		return 0
	}
	return float64(dd.Count[k]) / float64(dd.N)
}

// Degrees returns the observed degrees in increasing order.
func (dd *DegreeDist) Degrees() []int {
	out := make([]int, 0, len(dd.Count))
	for k := range dd.Count {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TotalDegree returns Σ k·n(k) (= 2M for a graph's degree distribution).
func (dd *DegreeDist) TotalDegree() int {
	t := 0
	for k, n := range dd.Count {
		t += k * n
	}
	return t
}

// AvgDegree returns Σ k·n(k) / N.
func (dd *DegreeDist) AvgDegree() float64 {
	if dd.N == 0 {
		return 0
	}
	return float64(dd.TotalDegree()) / float64(dd.N)
}

// MaxDegree returns the largest degree with a nonzero count.
func (dd *DegreeDist) MaxDegree() int {
	max := 0
	for k, n := range dd.Count {
		if n > 0 && k > max {
			max = k
		}
	}
	return max
}

// Sequence expands the distribution back into a degree sequence, sorted
// descending.
func (dd *DegreeDist) Sequence() []int {
	out := make([]int, 0, dd.N)
	for k, n := range dd.Count {
		for i := 0; i < n; i++ {
			out = append(out, k)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Clone returns a deep copy.
func (dd *DegreeDist) Clone() *DegreeDist {
	c := &DegreeDist{N: dd.N, Count: make(map[int]int, len(dd.Count))}
	for k, n := range dd.Count {
		c.Count[k] = n
	}
	return c
}

// DegPair is a canonical unordered degree pair (K1 <= K2).
type DegPair struct {
	K1, K2 int
}

// NewDegPair canonicalizes a degree pair.
func NewDegPair(a, b int) DegPair {
	if a > b {
		a, b = b, a
	}
	return DegPair{a, b}
}

// JDD is the 2K-distribution in count form: m(k1,k2) edges between nodes
// of degrees k1 and k2, out of M total edges.
type JDD struct {
	M     int
	Count map[DegPair]int
}

// NewJDD returns an empty joint degree distribution.
func NewJDD() *JDD {
	return &JDD{Count: make(map[DegPair]int)}
}

// Add records n edges of class (k1,k2).
func (j *JDD) Add(k1, k2, n int) {
	j.Count[NewDegPair(k1, k2)] += n
	j.M += n
}

// P returns the paper's normalized JDD value
// P(k1,k2) = m(k1,k2)·µ(k1,k2)/(2M), where µ is 2 when k1 = k2 and 1
// otherwise.
func (j *JDD) P(k1, k2 int) float64 {
	if j.M == 0 {
		return 0
	}
	mu := 1.0
	if k1 == k2 {
		mu = 2.0
	}
	return float64(j.Count[NewDegPair(k1, k2)]) * mu / (2 * float64(j.M))
}

// Pairs returns the observed degree pairs in lexicographic order.
func (j *JDD) Pairs() []DegPair {
	out := make([]DegPair, 0, len(j.Count))
	for p := range j.Count {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].K1 != out[b].K1 {
			return out[a].K1 < out[b].K1
		}
		return out[a].K2 < out[b].K2
	})
	return out
}

// DegreeDist derives the 1K-distribution implied by the JDD via the
// inclusion identity k·n(k) = Σ_{k'≠k} m(k,k') + 2·m(k,k). The node count
// N is the sum of the derived n(k).
//
// It returns an error if some class's endpoint total is not divisible by
// its degree, which means the counts did not come from a real graph.
func (j *JDD) DegreeDist() (*DegreeDist, error) {
	ends := make(map[int]int)
	for p, m := range j.Count {
		if p.K1 == p.K2 {
			ends[p.K1] += 2 * m
		} else {
			ends[p.K1] += m
			ends[p.K2] += m
		}
	}
	dd := &DegreeDist{Count: make(map[int]int, len(ends))}
	for k, e := range ends {
		if k <= 0 {
			return nil, fmt.Errorf("dk: JDD contains degree %d", k)
		}
		if e%k != 0 {
			return nil, fmt.Errorf("dk: JDD endpoint count %d for degree %d not divisible", e, k)
		}
		dd.Count[k] = e / k
		dd.N += e / k
	}
	return dd, nil
}

// Clone returns a deep copy.
func (j *JDD) Clone() *JDD {
	c := &JDD{M: j.M, Count: make(map[DegPair]int, len(j.Count))}
	for p, m := range j.Count {
		c.Count[p] = m
	}
	return c
}

// Profile is the dK-series summary of a graph up to depth D. Fields above
// the extracted depth are nil.
type Profile struct {
	D int // extraction depth, 0..3

	N, M      int
	AvgDegree float64 // P0

	Degrees *DegreeDist       // P1 (D >= 1)
	Joint   *JDD              // P2 (D >= 2)
	Census  *subgraphs.Census // P3 (D >= 3)
}

// Extract computes the dK-distributions of s up to depth d (0..3),
// reading its sorted neighbor windows in place.
func Extract(s *graph.CSR, d int) (*Profile, error) {
	if d < 0 || d > 3 {
		return nil, fmt.Errorf("dk: depth %d outside supported range 0..3", d)
	}
	p := &Profile{
		D:         d,
		N:         s.N(),
		M:         s.M(),
		AvgDegree: s.AvgDegree(),
	}
	if d >= 1 {
		seq := make([]int, s.N())
		for u := range seq {
			seq[u] = s.Degree(u)
		}
		p.Degrees = NewDegreeDist(seq)
	}
	if d >= 2 {
		p.Joint = NewJDD()
		for u := 0; u < s.N(); u++ {
			du := s.Degree(u)
			for _, v := range s.Neighbors(u) {
				if int(v) > u {
					p.Joint.Add(du, s.Degree(int(v)), 1)
				}
			}
		}
	}
	if d >= 3 {
		p.Census = subgraphs.Count(s)
	}
	return p, nil
}

// Validate checks the internal consistency of the profile: the inclusion
// identities tying each P_d to P_{d−1}.
//
//	P1 → P0: Σ n(k) = N and Σ k·n(k) = 2M
//	P2 → P1: the JDD-derived degree distribution equals Degrees
//	P3 → P2: Σ_k n(k)·C(k,2) = TotalWedges + 3·TotalTriangles
func (p *Profile) Validate() error {
	if p.D >= 1 {
		if p.Degrees == nil {
			return fmt.Errorf("dk: D=%d but Degrees is nil", p.D)
		}
		if p.Degrees.N != p.N {
			return fmt.Errorf("dk: Σ n(k) = %d, want N = %d", p.Degrees.N, p.N)
		}
		if got := p.Degrees.TotalDegree(); got != 2*p.M {
			return fmt.Errorf("dk: Σ k·n(k) = %d, want 2M = %d", got, 2*p.M)
		}
	}
	if p.D >= 2 {
		if p.Joint == nil {
			return fmt.Errorf("dk: D=%d but Joint is nil", p.D)
		}
		if p.Joint.M != p.M {
			return fmt.Errorf("dk: JDD edge total %d, want M = %d", p.Joint.M, p.M)
		}
		derived, err := p.Joint.DegreeDist()
		if err != nil {
			return err
		}
		for k, n := range p.Degrees.Count {
			if k > 0 && derived.Count[k] != n {
				return fmt.Errorf("dk: JDD-derived n(%d) = %d, want %d", k, derived.Count[k], n)
			}
		}
	}
	if p.D >= 3 {
		if p.Census == nil {
			return fmt.Errorf("dk: D=%d but Census is nil", p.D)
		}
		var pairs int64
		for k, n := range p.Degrees.Count {
			pairs += int64(n) * int64(k) * int64(k-1) / 2
		}
		got := p.Census.TotalWedges() + 3*p.Census.TotalTriangles()
		if pairs != got {
			return fmt.Errorf("dk: neighbor pairs %d != wedges+3·triangles %d", pairs, got)
		}
	}
	return nil
}

// Restrict returns a copy of p truncated to depth d <= p.D, exploiting the
// inclusion property of the series.
func (p *Profile) Restrict(d int) (*Profile, error) {
	if d < 0 || d > p.D {
		return nil, fmt.Errorf("dk: cannot restrict depth-%d profile to %d", p.D, d)
	}
	q := &Profile{D: d, N: p.N, M: p.M, AvgDegree: p.AvgDegree}
	if d >= 1 {
		q.Degrees = p.Degrees.Clone()
	}
	if d >= 2 {
		q.Joint = p.Joint.Clone()
	}
	if d >= 3 {
		q.Census = p.Census.Clone()
	}
	return q, nil
}
