package generate

import (
	"fmt"
	"slices"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// The retired interleaved objective protocol and its six objectives,
// kept as the differential reference for the read-only Score/Commit
// objectives. The Rewirer used to call Begin, then WillRemove/WillAdd
// immediately before each edge mutation of a candidate (so the objective
// saw the adjacency right before the change), then read Delta and either
// Committed or Rolled back. The census objectives ran on the map-keyed
// census delta below.
type interleavedObjective interface {
	Init(g *graph.CSR) error
	Begin()
	WillRemove(g *graph.CSR, u, v int)
	WillAdd(g *graph.CSR, u, v int)
	Delta() float64
	Commit()
	Rollback()
}

// refCensusDelta accumulates signed census changes from single-edge
// insertions and removals performed at the fixed degrees deg: the four
// edge changes of a degree-preserving swap telescope to exactly
// (census after − census before).
type refCensusDelta struct {
	Wedges    map[subgraphs.WedgeKey]int64
	Triangles map[subgraphs.TriangleKey]int64
}

func newRefCensusDelta() *refCensusDelta {
	return &refCensusDelta{
		Wedges:    make(map[subgraphs.WedgeKey]int64),
		Triangles: make(map[subgraphs.TriangleKey]int64),
	}
}

func (d *refCensusDelta) reset() {
	clear(d.Wedges)
	clear(d.Triangles)
}

func (d *refCensusDelta) addWedge(kEnd1, kCenter, kEnd2 int, sign int64) {
	k := subgraphs.NewWedgeKey(kEnd1, kCenter, kEnd2)
	if v := d.Wedges[k] + sign; v == 0 {
		delete(d.Wedges, k)
	} else {
		d.Wedges[k] = v
	}
}

func (d *refCensusDelta) addTriangle(a, b, c int, sign int64) {
	k := subgraphs.NewTriangleKey(a, b, c)
	if v := d.Triangles[k] + sign; v == 0 {
		delete(d.Triangles, k)
	} else {
		d.Triangles[k] = v
	}
}

// edgeChange records the census change of toggling edge (u,v) in g —
// sign −1 while the edge is still present, +1 while it is still absent:
// triangles through each common neighbor w (trading places with the
// u–w–v wedge), wedges centered at u ending at v's side, and wedges
// centered at v ending at u's side.
func (d *refCensusDelta) edgeChange(g *graph.CSR, deg []int, u, v int, sign int64) {
	du, dv := deg[u], deg[v]
	g.VisitNeighbors(u, func(w int) bool {
		if w == v {
			return true
		}
		if g.HasEdge(w, v) {
			d.addTriangle(du, dv, deg[w], sign)
			d.addWedge(du, deg[w], dv, -sign)
		} else {
			d.addWedge(dv, du, deg[w], sign)
		}
		return true
	})
	g.VisitNeighbors(v, func(w int) bool {
		if w == u || g.HasEdge(w, u) {
			return true
		}
		d.addWedge(du, dv, deg[w], sign)
		return true
	})
}

// refCounts is a census in the map-keyed form the references keep.
type refCounts struct {
	Wedges    map[subgraphs.WedgeKey]int64
	Triangles map[subgraphs.TriangleKey]int64
}

// refCountsOf converts a census to map form.
func refCountsOf(c *subgraphs.Census) *refCounts {
	m := &refCounts{Wedges: make(map[subgraphs.WedgeKey]int64), Triangles: make(map[subgraphs.TriangleKey]int64)}
	for _, w := range c.Wedges {
		m.Wedges[w.Key] = w.Count
	}
	for _, t := range c.Triangles {
		m.Triangles[t.Key] = t.Count
	}
	return m
}

// census converts m back to a canonical Census.
func (m *refCounts) census() *subgraphs.Census {
	c := subgraphs.NewCensus()
	for k, v := range m.Wedges {
		c.Wedges = append(c.Wedges, subgraphs.WedgeCount{Key: k, Count: v})
	}
	for k, v := range m.Triangles {
		c.Triangles = append(c.Triangles, subgraphs.TriangleCount{Key: k, Count: v})
	}
	slices.SortFunc(c.Wedges, func(a, b subgraphs.WedgeCount) int { return a.Key.Compare(b.Key) })
	slices.SortFunc(c.Triangles, func(a, b subgraphs.TriangleCount) int { return a.Key.Compare(b.Key) })
	return c
}

// applyTo folds the delta into census c in place.
func (d *refCensusDelta) applyTo(c *refCounts) {
	for k, v := range d.Wedges {
		if nv := c.Wedges[k] + v; nv == 0 {
			delete(c.Wedges, k)
		} else {
			c.Wedges[k] = nv
		}
	}
	for k, v := range d.Triangles {
		if nv := c.Triangles[k] + v; nv == 0 {
			delete(c.Triangles, k)
		} else {
			c.Triangles[k] = nv
		}
	}
}

// --- D1: degree-distribution distance (1K-targeting, 0K-preserving) ---

// refDegreeDist tracks D1 = Σ_k (n_cur(k) − n_tgt(k))² under moves
// that change node degrees (depth-0 rewiring).
type refDegreeDist struct {
	target  map[int]int
	current map[int]int
	pending map[int]int // degree class → count delta of the candidate
	delta   float64
}

// newRefDegreeDist targets the given degree distribution.
func newRefDegreeDist(target *dk.DegreeDist) *refDegreeDist {
	return &refDegreeDist{target: target.Count}
}

// Init snapshots g's degree distribution.
func (o *refDegreeDist) Init(g *graph.CSR) error {
	o.current = make(map[int]int)
	for u := 0; u < g.N(); u++ {
		o.current[g.Degree(u)]++
	}
	o.pending = make(map[int]int)
	return nil
}

// Begin resets the candidate accumulator.
func (o *refDegreeDist) Begin() {
	clear(o.pending)
	o.delta = 0
}

func (o *refDegreeDist) moveNode(from, to int) {
	o.bump(from, -1)
	o.bump(to, +1)
}

// bump applies a ±1 change to class k, updating the running D1 delta:
// for a count change c → c+s against target t, the squared-error change
// is s·(2(c−t)+s) with c the count including previously pending changes.
func (o *refDegreeDist) bump(k, s int) {
	c := float64(o.current[k] + o.pending[k])
	t := float64(o.target[k])
	o.delta += float64(s) * (2*(c-t) + float64(s))
	o.pending[k] += s
}

// WillRemove lowers both endpoint degrees by one.
func (o *refDegreeDist) WillRemove(g *graph.CSR, u, v int) {
	du, dv := g.Degree(u), g.Degree(v)
	o.moveNode(du, du-1)
	o.moveNode(dv, dv-1)
}

// WillAdd raises both endpoint degrees by one.
func (o *refDegreeDist) WillAdd(g *graph.CSR, u, v int) {
	du, dv := g.Degree(u), g.Degree(v)
	o.moveNode(du, du+1)
	o.moveNode(dv, dv+1)
}

// Delta returns the candidate's D1 change.
func (o *refDegreeDist) Delta() float64 { return o.delta }

// Commit folds the pending changes into the tracked distribution.
func (o *refDegreeDist) Commit() {
	for k, s := range o.pending {
		o.current[k] += s
	}
}

// Rollback discards the pending changes.
func (o *refDegreeDist) Rollback() {}

// Current returns the tracked D1 value recomputed from state (test hook).
func (o *refDegreeDist) Current() float64 {
	var sum float64
	seen := make(map[int]bool)
	for k, c := range o.current {
		d := float64(c - o.target[k])
		sum += d * d
		seen[k] = true
	}
	for k, t := range o.target {
		if !seen[k] {
			sum += float64(t) * float64(t)
		}
	}
	return sum
}

// --- D2: JDD distance (2K-targeting, 1K-preserving) ---

// refJDD tracks the paper's D2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²
// under degree-preserving moves.
type refJDD struct {
	target  map[dk.DegPair]int
	current map[dk.DegPair]int
	pending map[dk.DegPair]int
	deg     []int
	delta   float64
}

// newRefJDD targets the given joint degree distribution.
func newRefJDD(target *dk.JDD) *refJDD {
	return &refJDD{target: target.Count}
}

// Init snapshots g's JDD and degree sequence.
func (o *refJDD) Init(g *graph.CSR) error {
	p, err := dk.Extract(g, 2)
	if err != nil {
		return err
	}
	o.current = p.Joint.Count
	o.pending = make(map[dk.DegPair]int)
	o.deg = g.DegreeSequence()
	return nil
}

// Begin resets the candidate accumulator.
func (o *refJDD) Begin() {
	clear(o.pending)
	o.delta = 0
}

func (o *refJDD) bump(u, v, s int) {
	p := dk.NewDegPair(o.deg[u], o.deg[v])
	c := float64(o.current[p] + o.pending[p])
	t := float64(o.target[p])
	o.delta += float64(s) * (2*(c-t) + float64(s))
	o.pending[p] += s
}

// WillRemove decrements the edge's degree-pair class.
func (o *refJDD) WillRemove(g *graph.CSR, u, v int) { o.bump(u, v, -1) }

// WillAdd increments the edge's degree-pair class.
func (o *refJDD) WillAdd(g *graph.CSR, u, v int) { o.bump(u, v, +1) }

// Delta returns the candidate's D2 change.
func (o *refJDD) Delta() float64 { return o.delta }

// Commit folds the pending changes into the tracked JDD.
func (o *refJDD) Commit() {
	for p, s := range o.pending {
		o.current[p] += s
	}
}

// Rollback discards the pending changes.
func (o *refJDD) Rollback() {}

// Current recomputes D2 from tracked state (test hook).
func (o *refJDD) Current() float64 {
	var sum float64
	seen := make(map[dk.DegPair]bool)
	for p, c := range o.current {
		d := float64(c - o.target[p])
		sum += d * d
		seen[p] = true
	}
	for p, t := range o.target {
		if !seen[p] {
			sum += float64(t) * float64(t)
		}
	}
	return sum
}

// --- D3: wedge/triangle census distance (3K-targeting, 2K-preserving) ---

// refCensus tracks the paper's D3 — squared count differences over
// wedge and triangle classes — under degree-preserving moves, using the
// incremental census deltas from internal/subgraphs.
type refCensus struct {
	target  *refCounts
	current *refCounts
	pend    *refCensusDelta
	deg     []int
}

// newRefCensus targets the given wedge/triangle census.
func newRefCensus(target *subgraphs.Census) *refCensus {
	return &refCensus{target: refCountsOf(target)}
}

// Init counts g's census.
func (o *refCensus) Init(g *graph.CSR) error {
	o.current = refCountsOf(subgraphs.Count(g))
	o.pend = newRefCensusDelta()
	o.deg = g.DegreeSequence()
	return nil
}

// Begin resets the candidate delta.
func (o *refCensus) Begin() { o.pend.reset() }

// WillRemove accumulates the census change of deleting (u,v).
func (o *refCensus) WillRemove(g *graph.CSR, u, v int) {
	o.pend.edgeChange(g, o.deg, u, v, -1)
}

// WillAdd accumulates the census change of inserting (u,v).
func (o *refCensus) WillAdd(g *graph.CSR, u, v int) {
	o.pend.edgeChange(g, o.deg, u, v, +1)
}

// Delta returns the candidate's D3 change: for each class with pending
// change δ against current count c and target t, the squared-error change
// is δ·(2(c−t)+δ).
func (o *refCensus) Delta() float64 {
	var sum float64
	for k, d := range o.pend.Wedges {
		c := float64(o.current.Wedges[k])
		t := float64(o.target.Wedges[k])
		sum += float64(d) * (2*(c-t) + float64(d))
	}
	for k, d := range o.pend.Triangles {
		c := float64(o.current.Triangles[k])
		t := float64(o.target.Triangles[k])
		sum += float64(d) * (2*(c-t) + float64(d))
	}
	return sum
}

// Commit folds the pending delta into the tracked census.
func (o *refCensus) Commit() { o.pend.applyTo(o.current) }

// Rollback discards the pending delta.
func (o *refCensus) Rollback() {}

// Current recomputes D3 from tracked state (test hook).
func (o *refCensus) Current() float64 {
	return dk.D3(o.current.census(), o.target.census())
}

// --- Scalar exploration objectives ---

// refLikelihood scores moves by the likelihood S = Σ_E d_u·d_v,
// the 1K-space exploration metric of Section 4.3. Degree-preserving moves
// only.
type refLikelihood struct {
	deg   []int
	delta float64
}

// Init caches the degree sequence.
func (o *refLikelihood) Init(g *graph.CSR) error {
	o.deg = g.DegreeSequence()
	return nil
}

// Begin resets the candidate accumulator.
func (o *refLikelihood) Begin() { o.delta = 0 }

// WillRemove subtracts the removed edge's degree product.
func (o *refLikelihood) WillRemove(g *graph.CSR, u, v int) {
	o.delta -= float64(o.deg[u]) * float64(o.deg[v])
}

// WillAdd adds the inserted edge's degree product.
func (o *refLikelihood) WillAdd(g *graph.CSR, u, v int) {
	o.delta += float64(o.deg[u]) * float64(o.deg[v])
}

// Delta returns the candidate's S change.
func (o *refLikelihood) Delta() float64 { return o.delta }

// Commit is a no-op: S is fully determined by the graph.
func (o *refLikelihood) Commit() {}

// Rollback is a no-op.
func (o *refLikelihood) Rollback() {}

// refS2 scores moves by the second-order likelihood
// S2 = Σ_{open wedges} d_end1·d_end2, via the census delta. Degree-
// preserving moves only.
type refS2 struct {
	pend *refCensusDelta
	deg  []int
}

// Init prepares the delta accumulator.
func (o *refS2) Init(g *graph.CSR) error {
	o.pend = newRefCensusDelta()
	o.deg = g.DegreeSequence()
	return nil
}

// Begin resets the candidate delta.
func (o *refS2) Begin() { o.pend.reset() }

// WillRemove accumulates the census change of deleting (u,v).
func (o *refS2) WillRemove(g *graph.CSR, u, v int) {
	o.pend.edgeChange(g, o.deg, u, v, -1)
}

// WillAdd accumulates the census change of inserting (u,v).
func (o *refS2) WillAdd(g *graph.CSR, u, v int) {
	o.pend.edgeChange(g, o.deg, u, v, +1)
}

// Delta returns the candidate's S2 change: Σ over wedge classes of
// δ·K_lo·K_hi.
func (o *refS2) Delta() float64 {
	var sum float64
	for k, d := range o.pend.Wedges {
		sum += float64(d) * float64(k.KLo) * float64(k.KHi)
	}
	return sum
}

// Commit is a no-op: S2 is fully determined by the graph.
func (o *refS2) Commit() {}

// Rollback is a no-op.
func (o *refS2) Rollback() {}

// refClustering scores moves by the mean clustering C̄ (average of
// c(v) = tri(v)/C(d_v,2) over nodes with degree ≥ 2). It maintains exact
// per-node triangle counts; degree-preserving moves only, so the set of
// degree-≥2 nodes — and hence the normalization — is constant.
type refClustering struct {
	tri     []int64
	pending map[int]int64
	deg     []int
	invPair []float64 // 2/(d·(d−1)) per node, 0 for degree < 2
	n2      float64   // number of nodes with degree >= 2
}

// Init counts triangles per node.
func (o *refClustering) Init(g *graph.CSR) error {
	o.deg = g.DegreeSequence()
	o.tri = make([]int64, g.N())
	o.invPair = make([]float64, g.N())
	o.pending = make(map[int]int64)
	o.n2 = 0
	for v, d := range o.deg {
		if d >= 2 {
			o.invPair[v] = 2 / (float64(d) * float64(d-1))
			o.n2++
		}
	}
	if o.n2 == 0 {
		return fmt.Errorf("generate: clustering objective needs a node of degree >= 2")
	}
	// One triangle pass.
	for u := 0; u < g.N(); u++ {
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			if v <= u {
				continue
			}
			a, b := u, v
			if g.Degree(a) > g.Degree(b) {
				a, b = b, a
			}
			for _, w32 := range g.Neighbors(a) {
				w := int(w32)
				if w <= v {
					continue
				}
				if g.HasEdge(b, w) {
					o.tri[u]++
					o.tri[v]++
					o.tri[w]++
				}
			}
		}
	}
	return nil
}

// Begin resets the candidate accumulator.
func (o *refClustering) Begin() { clear(o.pending) }

func (o *refClustering) edgeChange(g *graph.CSR, u, v int, sign int64) {
	small, large := u, v
	if g.Degree(small) > g.Degree(large) {
		small, large = large, small
	}
	g.VisitNeighbors(small, func(w int) bool {
		if w != large && g.HasEdge(w, large) {
			o.pending[u] += sign
			o.pending[v] += sign
			o.pending[w] += sign
		}
		return true
	})
}

// WillRemove accumulates triangle losses through common neighbors.
func (o *refClustering) WillRemove(g *graph.CSR, u, v int) {
	o.edgeChange(g, u, v, -1)
}

// WillAdd accumulates triangle gains through common neighbors.
func (o *refClustering) WillAdd(g *graph.CSR, u, v int) {
	o.edgeChange(g, u, v, +1)
}

// Delta returns the candidate's C̄ change. The pending contributions are
// summed in sorted node order: float addition is not associative, and
// map-order summation would make otherwise identical runs diverge at
// near-zero deltas, breaking seed determinism.
func (o *refClustering) Delta() float64 {
	keys := make([]int, 0, len(o.pending))
	for v := range o.pending {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	var sum float64
	for _, v := range keys {
		sum += float64(o.pending[v]) * o.invPair[v]
	}
	return sum / o.n2
}

// Commit folds the pending per-node triangle changes in.
func (o *refClustering) Commit() {
	for v, d := range o.pending {
		o.tri[v] += d
	}
}

// Rollback discards pending changes.
func (o *refClustering) Rollback() {}

// Current returns the tracked C̄ value (test hook).
func (o *refClustering) Current() float64 {
	var sum float64
	for v, t := range o.tri {
		sum += float64(t) * o.invPair[v]
	}
	return sum / o.n2
}
