package generate

import (
	"fmt"
	"slices"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/subgraphs"
)

// Objective scores candidate rewiring moves. The Rewirer calls Score
// before a move touches the graph, so scoring is read-only; if the move
// is accepted and applied, Commit follows with the same move, before
// the next Score. Objectives must be cheap: Score runs once per
// proposal that passes the structural checks.
type Objective interface {
	Init(g *graph.CSR) error
	// Score returns the objective change the move would make.
	Score(m Move) float64
	// Commit folds an accepted, already applied move into the
	// objective's state.
	Commit(m Move)
}

// degreeBump is one ±1 change of a degree (or degree-pair) class, in
// the order the move's edge operations make it.
type degreeBump struct {
	k int
	s int64
}

// scoreBumps returns the change in Σ gap² that bumps make, applying them
// in order so repeated classes see each other, then restores gap.
func scoreBumps(gap []int64, bumps []degreeBump) float64 {
	var delta int64
	for _, b := range bumps {
		delta += b.s * (2*gap[b.k] + b.s)
		gap[b.k] += b.s
	}
	for _, b := range bumps {
		gap[b.k] -= b.s
	}
	return float64(delta)
}

// sumSquares returns fixed + Σ v² over gap.
func sumSquares(gap []int64, fixed float64) float64 {
	sum := fixed
	for _, v := range gap {
		sum += float64(v) * float64(v)
	}
	return sum
}

// --- D1: degree-distribution distance (1K-targeting, 0K-preserving) ---

// DegreeDistObjective tracks D1 = Σ_k (n_cur(k) − n_tgt(k))² under moves
// that change node degrees (depth-0 rewiring).
type DegreeDistObjective struct {
	target map[int]int
	g      *graph.CSR
	gap    []int64 // degree k → n_cur(k) − n_tgt(k), for k < N
	fixed  float64 // Σ n_tgt(k)² over degrees k ≥ N, which no node reaches
	bumps  []degreeBump
}

// NewDegreeDistObjective targets the given degree distribution.
func NewDegreeDistObjective(target *dk.DegreeDist) *DegreeDistObjective {
	return &DegreeDistObjective{target: target.Count}
}

// Init snapshots g's degree distribution.
func (o *DegreeDistObjective) Init(g *graph.CSR) error {
	o.g = g
	o.gap = make([]int64, g.N())
	o.fixed = 0
	for u := 0; u < g.N(); u++ {
		o.gap[g.Degree(u)]++
	}
	for k, t := range o.target {
		if k < len(o.gap) {
			o.gap[k] -= int64(t)
		} else {
			o.fixed += float64(t) * float64(t)
		}
	}
	return nil
}

// Score returns the move's D1 change. Swaps (depth >= 1) keep every
// degree, so only depth-0 moves score: removing (U,V) moves both
// endpoints down one degree class, then adding (X,Y) moves both up one
// from the degrees the removal left.
func (o *DegreeDistObjective) Score(m Move) float64 {
	o.bumps = o.bumps[:0]
	if m.Depth > 0 {
		return 0
	}
	removed := func(n int) int { // n's degree once (U,V) is gone
		if n == m.U || n == m.V {
			return o.g.Degree(n) - 1
		}
		return o.g.Degree(n)
	}
	du, dv := o.g.Degree(m.U), o.g.Degree(m.V)
	dx, dy := removed(m.X), removed(m.Y)
	o.bumps = append(o.bumps,
		degreeBump{du, -1}, degreeBump{du - 1, +1},
		degreeBump{dv, -1}, degreeBump{dv - 1, +1},
		degreeBump{dx, -1}, degreeBump{dx + 1, +1},
		degreeBump{dy, -1}, degreeBump{dy + 1, +1})
	return scoreBumps(o.gap, o.bumps)
}

// Commit folds the scored move's class changes in.
func (o *DegreeDistObjective) Commit(Move) {
	for _, b := range o.bumps {
		o.gap[b.k] += b.s
	}
}

// Current returns the tracked D1 value.
func (o *DegreeDistObjective) Current() float64 { return sumSquares(o.gap, o.fixed) }

// --- D2: JDD distance (2K-targeting, 1K-preserving) ---

// JDDObjective tracks the paper's D2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²
// under degree-preserving moves, over a dense table of degree-class
// pairs. A graph with m edges has at most 2√m distinct degrees, so the
// table has at most 4m entries.
type JDDObjective struct {
	target map[dk.DegPair]int
	nc     int
	cls    []int32 // node → degree class, ascending in degree
	gap    []int64 // class pair a*nc+b, a ≤ b → m_cur − m_tgt
	fixed  float64 // Σ m_tgt² over pairs with a degree no node has
	bumps  [4]degreeBump
}

// NewJDDObjective targets the given joint degree distribution.
func NewJDDObjective(target *dk.JDD) *JDDObjective {
	return &JDDObjective{target: target.Count}
}

// Init snapshots g's JDD and degree classes.
func (o *JDDObjective) Init(g *graph.CSR) error {
	classOf, classDeg, cls := subgraphs.DegreeClasses(g.DegreeSequence())
	o.nc = len(classDeg)
	o.cls = cls
	o.gap = make([]int64, o.nc*o.nc)
	o.fixed = 0
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		o.gap[o.pair(e.U, e.V)]++
	}
	class := func(k int) (int, bool) {
		if k < 0 || k >= len(classOf) || classOf[k] < 0 {
			return 0, false
		}
		return int(classOf[k]), true
	}
	for p, t := range o.target {
		a, okA := class(p.K1)
		b, okB := class(p.K2)
		if !okA || !okB {
			o.fixed += float64(t) * float64(t)
			continue
		}
		if a > b {
			a, b = b, a
		}
		o.gap[a*o.nc+b] -= int64(t)
	}
	return nil
}

// pair returns the table index of edge (u,v)'s degree-class pair.
func (o *JDDObjective) pair(u, v int) int {
	a, b := int(o.cls[u]), int(o.cls[v])
	if a > b {
		a, b = b, a
	}
	return a*o.nc + b
}

// Score returns the move's D2 change.
func (o *JDDObjective) Score(m Move) float64 {
	o.bumps = [4]degreeBump{
		{o.pair(m.U, m.V), -1}, {o.pair(m.X, m.Y), -1},
		{o.pair(m.U, m.Y), +1}, {o.pair(m.X, m.V), +1},
	}
	return scoreBumps(o.gap, o.bumps[:])
}

// Commit folds the scored move's pair changes in.
func (o *JDDObjective) Commit(Move) {
	for _, b := range o.bumps {
		o.gap[b.k] += b.s
	}
}

// Current returns the tracked D2 value.
func (o *JDDObjective) Current() float64 { return sumSquares(o.gap, o.fixed) }

// --- D3: wedge/triangle census distance (3K-targeting, 2K-preserving) ---

// censusState is the Tracker machinery shared by the census-based
// objectives: the class tables and bitsets, and one delta buffer that
// Score fills and Commit reuses.
type censusState struct {
	t  *subgraphs.Tracker
	td *subgraphs.TrackerDelta
}

func (c *censusState) init(g *graph.CSR) {
	c.t = subgraphs.NewTracker(g, g.DegreeSequence())
	c.td = c.t.NewDelta()
}

// delta fills c.td with the census change of swap m, which must keep
// the JDD (rewiring depth 2 or 3).
func (c *censusState) delta(m Move) { c.t.SwapDelta(c.td, m.U, m.V, m.X, m.Y) }

// CensusObjective tracks the paper's D3 — squared count differences over
// wedge and triangle classes — under 2K-preserving swaps, scoring
// each swap's Tracker census delta against a class-indexed
// current − target gap.
type CensusObjective struct {
	target *subgraphs.Census
	censusState
	gap *subgraphs.CensusGap
}

// NewCensusObjective targets the given wedge/triangle census.
func NewCensusObjective(target *subgraphs.Census) *CensusObjective {
	return &CensusObjective{target: target}
}

// Init counts g's census.
func (o *CensusObjective) Init(g *graph.CSR) error {
	o.init(g)
	o.gap = o.t.NewCensusGap(subgraphs.Count(g), o.target)
	return nil
}

// Score returns the swap's D3 change.
func (o *CensusObjective) Score(m Move) float64 {
	o.delta(m)
	return float64(o.gap.Score(o.td))
}

// Commit folds the scored swap's census change into the gap.
func (o *CensusObjective) Commit(m Move) {
	o.gap.Commit(o.td)
	o.t.ApplySwap(m.U, m.V, m.X, m.Y)
}

// Current returns the tracked D3 value.
func (o *CensusObjective) Current() float64 { return o.gap.Sum() }

// --- Scalar exploration objectives ---

// LikelihoodObjective scores moves by the likelihood S = Σ_E d_u·d_v,
// the 1K-space exploration metric of Section 4.3, from the degrees
// cached at Init. Degree-preserving moves only.
type LikelihoodObjective struct {
	deg []int
}

// Init caches the degree sequence.
func (o *LikelihoodObjective) Init(g *graph.CSR) error {
	o.deg = g.DegreeSequence()
	return nil
}

// Score returns the move's S change: the added edges' degree products
// minus the removed ones'.
func (o *LikelihoodObjective) Score(m Move) float64 {
	du, dv, dx, dy := o.deg[m.U], o.deg[m.V], o.deg[m.X], o.deg[m.Y]
	if m.Depth == 0 {
		return float64(dx*dy - du*dv)
	}
	return float64(du*dy + dx*dv - du*dv - dx*dy)
}

// Commit is a no-op: S is fully determined by the graph.
func (o *LikelihoodObjective) Commit(Move) {}

// S2Objective scores moves by the second-order likelihood
// S2 = Σ_{open wedges} d_end1·d_end2, via the Tracker census delta.
// 2K-preserving swaps only.
type S2Objective struct {
	censusState
	sum int64
}

// Init prepares the Tracker.
func (o *S2Objective) Init(g *graph.CSR) error {
	o.init(g)
	return nil
}

// Score returns the swap's S2 change: Σ over wedge classes of
// δ·K_lo·K_hi.
func (o *S2Objective) Score(m Move) float64 {
	o.delta(m)
	o.sum = 0
	o.td.EachWedge(o.addWedge)
	return float64(o.sum)
}

func (o *S2Objective) addWedge(k subgraphs.WedgeKey, v int64) {
	o.sum += v * int64(k.KLo) * int64(k.KHi)
}

// Commit keeps the Tracker in step; S2 itself is fully determined by
// the graph.
func (o *S2Objective) Commit(m Move) { o.t.ApplySwap(m.U, m.V, m.X, m.Y) }

// ClusteringObjective scores moves by the mean clustering C̄ (average of
// c(v) = tri(v)/C(d_v,2) over nodes with degree ≥ 2). It maintains exact
// per-node triangle counts; degree-preserving swaps only, so the set of
// degree-≥2 nodes — and hence the normalization — is constant.
type ClusteringObjective struct {
	t       *subgraphs.Tracker
	tri     []int64
	pend    []int64 // per-node triangle change of the scored swap
	touched []int   // nodes with a pend entry, each once
	marked  []bool
	invPair []float64 // 2/(d·(d−1)) per node, 0 for degree < 2
	n2      float64   // number of nodes with degree >= 2
	visit   func(a, b, w, sign int)
}

// Init counts triangles per node.
func (o *ClusteringObjective) Init(g *graph.CSR) error {
	deg := g.DegreeSequence()
	o.t = subgraphs.NewTracker(g, deg)
	o.pend = make([]int64, g.N())
	o.marked = make([]bool, g.N())
	o.invPair = make([]float64, g.N())
	o.n2 = 0
	for v, d := range deg {
		if d >= 2 {
			o.invPair[v] = 2 / (float64(d) * float64(d-1))
			o.n2++
		}
	}
	if o.n2 == 0 {
		return fmt.Errorf("generate: clustering objective needs a node of degree >= 2")
	}
	o.visit = func(a, b, w, sign int) {
		o.bump(a, sign)
		o.bump(b, sign)
		o.bump(w, sign)
	}
	o.tri = metrics.Triangles(g).PerNode
	return nil
}

func (o *ClusteringObjective) bump(v, sign int) {
	if !o.marked[v] {
		o.marked[v] = true
		o.touched = append(o.touched, v)
	}
	o.pend[v] += int64(sign)
}

// Score returns the swap's C̄ change. The per-node contributions are
// summed in sorted node order: float addition is not associative, and
// any other order would make otherwise identical runs diverge at
// near-zero deltas, breaking seed determinism.
func (o *ClusteringObjective) Score(m Move) float64 {
	for _, v := range o.touched {
		o.pend[v] = 0
		o.marked[v] = false
	}
	o.touched = o.touched[:0]
	o.t.SwapTriangles(m.U, m.V, m.X, m.Y, o.visit)
	slices.Sort(o.touched)
	var sum float64
	for _, v := range o.touched {
		sum += float64(o.pend[v]) * o.invPair[v]
	}
	return sum / o.n2
}

// Commit folds the scored swap's per-node triangle changes in.
func (o *ClusteringObjective) Commit(m Move) {
	for _, v := range o.touched {
		o.tri[v] += o.pend[v]
	}
	o.t.ApplySwap(m.U, m.V, m.X, m.Y)
}

// Current returns the tracked C̄ value.
func (o *ClusteringObjective) Current() float64 {
	var sum float64
	for v, t := range o.tri {
		sum += float64(t) * o.invPair[v]
	}
	return sum / o.n2
}
