package generate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// Move is one dK-preserving rewiring step, expressed as edge removals
// followed by edge insertions.
//
//	depth 0:  remove (U,V),           add (X,Y)           — preserves k̄
//	depth 1+: remove (U,V) and (X,Y), add (U,Y) and (X,V) — preserves P(k)
//
// For depth 2 the proposal additionally requires deg(V) = deg(Y) or
// deg(U) = deg(X) (Figure 4 of the paper), which preserves the JDD; for
// depth 3 the engine also verifies that the wedge/triangle census is
// unchanged. Objective-free rewiring at depths 2 and 3 draws V and Y as
// the far nodes of two ends whose far nodes have equal degree, so its
// moves satisfy deg(V) = deg(Y) by construction and none fails the JDD
// test.
type Move struct {
	U, V, X, Y int
	Depth      int
}

// rejectReason classifies why a candidate proposal was not accepted.
type rejectReason uint8

const (
	rejectNone          rejectReason = iota
	rejectSelfLoop                   // shared endpoint / x == y: the swap would create a self-loop
	rejectDuplicateEdge              // a replacement edge already exists
	rejectJDDMismatch                // depth ≥ 2: neither dv = dy nor du = dx
	rejectCensusChanged              // depth 3: wedge/triangle census delta nonzero
	rejectObjective                  // acceptance policy declined the objective delta
	rejectDisconnected               // PreserveConnectivity vetoed the move
)

// RejectionBreakdown counts rejected proposals by reason. Each rejected
// proposal counts once, under the first check it fails, in the order
// self-loop → JDD mismatch (depth ≥ 2) → duplicate edge → census change
// (depth 3) → objective → disconnected. The JDD test precedes the
// duplicate probe because it costs four degree loads where the probe
// makes two edge-set hash lookups, likely cache misses on a large graph,
// so a proposal that is both a duplicate and a JDD mismatch counts as
// JDDMismatch. The structural reasons and the objective are decided
// before the move touches the graph; connectivity rejections apply the
// move first and roll it back. Objective and connectivity rejections
// also count in RewireStats.Reverted. Objective-free rewiring at depths
// 2 and 3 proposes only JDD-preserving swaps, so it never counts a
// JDDMismatch; at depth 3 its checks run self-loop → duplicate edge →
// census change.
type RejectionBreakdown struct {
	SelfLoop      int
	DuplicateEdge int
	JDDMismatch   int
	CensusChanged int
	Objective     int
	Disconnected  int
}

// Total returns the total number of rejected proposals.
func (b RejectionBreakdown) Total() int {
	return b.SelfLoop + b.DuplicateEdge + b.JDDMismatch + b.CensusChanged + b.Objective + b.Disconnected
}

func (b *RejectionBreakdown) count(r rejectReason) {
	switch r {
	case rejectSelfLoop:
		b.SelfLoop++
	case rejectDuplicateEdge:
		b.DuplicateEdge++
	case rejectJDDMismatch:
		b.JDDMismatch++
	case rejectCensusChanged:
		b.CensusChanged++
	case rejectObjective:
		b.Objective++
	case rejectDisconnected:
		b.Disconnected++
	}
}

// RewireStats reports what a rewiring run did. The invariant
// Attempts == Accepted + Rejected.Total() holds after every Step.
type RewireStats struct {
	Attempts int // candidate proposals examined
	Accepted int // moves applied (and kept)
	Reverted int // moves declined by the objective or rolled back by connectivity
	// Rejected breaks the Attempts − Accepted gap down by reason, so a
	// collapsed acceptance rate is diagnosable (e.g. a dense graph
	// drowning in duplicate-edge rejections vs. a depth-3 run whose
	// census constraint bites).
	Rejected RejectionBreakdown
}

// Rewirer performs dK-preserving rewiring on a mutable graph with an
// optional Objective scoring each candidate move and an acceptance Policy
// deciding from the objective delta. A nil objective with the default
// policy yields pure dK-randomizing rewiring.
type Rewirer struct {
	// G is the graph being rewired; moves draw their edges from the end
	// index, never from G. After every Step, G's edge set is current, as
	// objectives, the census tracker and PreserveConnectivity need, and
	// its EdgeAt order is current once Run returns (error returns
	// included): Run writes the index's slot order back once, in place.
	// Objective-free Steps at depths 2 and 3 keep the order current too.
	// Inside Run's own loop, objective-free moves at depths 0–2 without
	// PreserveConnectivity leave G untouched until Run returns, so
	// OnProgress callbacks see G as Run began.
	G     *graph.CSR
	Depth int // preserved depth d: 0, 1, 2 or 3
	Rng   *rand.Rand
	// Obj scores candidate moves; nil accepts unconditionally (subject to
	// the structural constraints of Depth). Set it before the first Step:
	// at depths 2 and 3 it selects the proposer.
	Obj Objective
	// Accept decides from the objective delta; nil accepts everything.
	Accept Policy
	// PreserveConnectivity rejects moves that disconnect the graph
	// (checked by BFS after each accepted move — expensive; the paper
	// itself does not check and extracts GCCs afterwards).
	PreserveConnectivity bool
	// RecordMoves appends every accepted move to the log returned by
	// AcceptedMoves — the differential test harness replays it.
	RecordMoves bool
	// OnProgress, when set, receives a convergence sample from Run every
	// ProgressEvery attempts (default: one sample per M attempts — a
	// "sweep" in the paper's 10·M-swaps convention), plus a final sample
	// when the run stops between sample boundaries. Purely observational:
	// the callback never touches the RNG stream or the accepted-move
	// sequence, so tracing a run cannot change its result.
	OnProgress func(RewireProgress)
	// ProgressEvery is the attempt interval between OnProgress samples
	// (<= 0 selects the per-sweep default).
	ProgressEvery int
	// Stats accumulates across all Steps of this Rewirer's lifetime.
	Stats RewireStats

	// objSum accumulates committed objective deltas — the objective's
	// change since the run began — for convergence samples and
	// TargetRewire's running distance.
	objSum float64
	// With stopAtZero, Run stops once the objective, zeroAt + objSum,
	// is zero: before its first proposal or after an accepted move.
	// TargetRewire sets zeroAt to the objective's initial value.
	stopAtZero bool
	zeroAt     float64
	// stop is why the last Run ended. Reaching its acceptance target,
	// which targeting never sets, counts as StopMaxAttempts.
	stop StopReason

	deg     []int
	tracker *subgraphs.Tracker      // depth-3 census machinery, else nil
	td      *subgraphs.TrackerDelta // the census delta of the swap being checked
	moves   []Move
	ends    *endIndex // every move's proposal state, built by the first Step
	deferG  bool      // Run's loop is leaving objective-free moves out of G
}

// endBlock is the most objective-free depth-2 attempts drawn ahead of
// their checks (see endIndex.draw). BenchmarkRewireD2PowerLaw reads the
// same within noise at 16, 64 and 256: a few dozen attempts in flight
// already overlap the misses.
const endBlock = 64

// endIndex is the proposal state of rewiring. An oriented edge end
// a = edge<<1|side runs from its near node at[a] to its far node
// at[a^1]. Read in pairs, at is the edge list in slot order: edge i
// joins at[2i] and at[2i+1], which is EdgeAt(i) up to orientation.
// edges answers the duplicate probes. stale reports changes not yet
// written back to the graph. Scored moves use only these three, so the
// rest is built by the first draw or drawPair (see sortEnds). byFar
// lists every end grouped by the degree of its far node: class k is
// byFar[class[k]:class[k+1]]. A 2K swap exchanges the far nodes of two
// ends in one class, which moves no end to another class, so only the
// two far entries of at change. pairCum[i] counts the ordered end pairs
// |C|² of the non-empty classes pairDeg[0..i], in ascending degree:
// drawPair's class table.
//
// drawn[next:n] are the end pairs (a, b) of attempts drawn but not yet
// checked; sink folds the values draw touches, so those loads stay live.
type endIndex struct {
	at    []int32
	byFar []uint32
	class []int32
	edges *edgeSet
	stale bool

	pairDeg []int32
	pairCum []int64

	drawn   [endBlock][2]uint32
	next, n int
	sink    uint64
}

// newEndIndex builds the end list and edge set of g, in O(m).
func newEndIndex(g *graph.CSR) *endIndex {
	m := g.M()
	ix := &endIndex{at: make([]int32, 2*m), edges: newEdgeSet(m)}
	for i := 0; i < m; i++ {
		e := g.EdgeAt(i)
		u, v := int32(e.U), int32(e.V)
		ix.at[2*i], ix.at[2*i+1] = u, v
		ix.edges.insert(edgeKey(u, v))
	}
	return ix
}

// sortEnds builds byFar, class and drawPair's class table from at by
// counting sort of the ends by far degree, in O(n + m), unless it has
// built them already.
func (ix *endIndex) sortEnds(deg []int) {
	if ix.byFar != nil {
		return
	}
	ix.byFar = make([]uint32, len(ix.at))
	ix.class = make([]int32, slices.Max(deg)+2)
	for _, v := range ix.at {
		ix.class[deg[v]+1]++
	}
	total := int64(0)
	for k := 1; k < len(ix.class); k++ {
		if c := int64(ix.class[k]); c > 0 {
			total += c * c
			ix.pairDeg = append(ix.pairDeg, int32(k-1))
			ix.pairCum = append(ix.pairCum, total)
		}
		ix.class[k] += ix.class[k-1]
	}
	fill := append([]int32(nil), ix.class...)
	for a := range ix.at {
		k := deg[ix.at[a^1]]
		ix.byFar[fill[k]] = uint32(a)
		fill[k]++
	}
}

// draw draws the end pairs of the next k ≤ endBlock attempts, replacing
// any left unchecked. Pass 1 makes exactly the rng calls k single
// attempts would, in the same order: a = Intn(2M), then b uniform over
// the class of deg(at[a^1]). The draws never depend on the swaps the
// earlier attempts of the block will make: a swap exchanges far nodes of
// equal degree, so no end's far degree changes, and neither byFar nor
// class is ever written. Pass 2 loads the four ends of each pair and the
// home slots of the four edge keys its check and swap probe. The loads
// of different attempts are independent, so their cache misses overlap
// where one attempt at a time would wait on each in turn. The values it
// loads decide nothing: the check re-reads at, which the block's earlier
// swaps may have changed.
func (ix *endIndex) draw(rng *rand.Rand, deg []int, k int) {
	ix.sortEnds(deg)
	for i := range k {
		a := rng.Intn(len(ix.at))
		d := deg[ix.at[a^1]]
		lo, hi := ix.class[d], ix.class[d+1]
		ix.drawn[i] = [2]uint32{uint32(a), ix.byFar[int(lo)+rng.Intn(int(hi-lo))]}
	}
	s := ix.edges
	sink := ix.sink
	for _, p := range ix.drawn[:k] {
		u, v, x, y := ix.at[p[0]], ix.at[p[0]^1], ix.at[p[1]], ix.at[p[1]^1]
		sink += s.slots[s.home(edgeKey(u, v))] ^ s.slots[s.home(edgeKey(x, y))] ^
			s.slots[s.home(edgeKey(u, y))] ^ s.slots[s.home(edgeKey(x, v))]
	}
	ix.sink = sink
	ix.next, ix.n = 0, k
}

// drawPair draws the end pair of one objective-free depth-3 attempt,
// uniform over the ordered pairs of ends in one class: one value t
// below Σ|C|² picks a class with probability ∝ |C|², and its offset r
// in that class gives a = r / |C| and b = r mod |C|. Swapping a pair
// leaves every class as it was, so the reverse swap has the same
// probability and the chain keeps its uniform stationary law. (draw's
// uniform first end lands on the one-node class of a hub of unique
// degree as often as the hub has ends, and every pair in that class is
// a self-loop; at depth 3 that draw ran slower on Skitter inputs.)
func (ix *endIndex) drawPair(rng *rand.Rand, deg []int) (a, b int) {
	ix.sortEnds(deg)
	cum := ix.pairCum
	t := rng.Int63n(cum[len(cum)-1])
	i := sort.Search(len(cum), func(i int) bool { return cum[i] > t })
	if i > 0 {
		t -= cum[i-1]
	}
	d := ix.pairDeg[i]
	lo, n := int64(ix.class[d]), int64(ix.class[d+1]-ix.class[d])
	return int(ix.byFar[lo+t/n]), int(ix.byFar[lo+t%n])
}

// swap exchanges the far nodes of ends a and b: the 2K swap
// (u,v),(x,y) → (u,y),(x,v). It updates the edge set, and g in place
// unless g is nil; then g falls behind until Rewirer.sync. It is its own
// inverse.
func (ix *endIndex) swap(g *graph.CSR, a, b int) {
	u, v, x, y := ix.at[a], ix.at[a^1], ix.at[b], ix.at[b^1]
	ix.rekey(u, v, u, y)
	ix.rekey(x, y, x, v)
	if g == nil {
		ix.stale = true
	} else {
		mustSwap(g, int(u), int(v), int(x), int(y))
	}
	ix.at[a^1], ix.at[b^1] = y, v
}

// rekey replaces the edge (u,v) by (x,y) in the edge set.
func (ix *endIndex) rekey(u, v, x, y int32) {
	if !ix.edges.remove(edgeKey(u, v)) || !ix.edges.insert(edgeKey(x, y)) {
		panic(fmt.Sprintf("generate: internal invariant violated: edge (%d,%d) → (%d,%d) disagrees with the edge set", u, v, x, y))
	}
}

// edge returns the edge in slot i, oriented as EdgeAt(i) orients it.
func (ix *endIndex) edge(i int) (u, v int) {
	a, b := ix.at[2*i], ix.at[2*i+1]
	return int(min(a, b)), int(max(a, b))
}

// cut removes the edge in slot i as CSR.RemoveEdge does: the last edge
// moves into its slot.
func (ix *endIndex) cut(i int) {
	last := len(ix.at) - 2
	ix.at[2*i], ix.at[2*i+1] = ix.at[last], ix.at[last+1]
	ix.at = ix.at[:last]
}

// requeue records a scored move m drawn from slots i and j (i alone at
// depth 0) that passed the structural checks: it cuts the removed edges
// in draw order and appends m's added edges if kept, else its removed
// ones in reverse order. That is the EdgeAt order RemoveEdge and AddEdge
// leave when m is applied and, unless kept, rolled back.
func (ix *endIndex) requeue(m Move, i, j int, kept bool) {
	u, v, x, y := int32(m.U), int32(m.V), int32(m.X), int32(m.Y)
	ix.stale = true
	ix.cut(i)
	if m.Depth == 0 {
		if kept {
			ix.rekey(u, v, x, y)
			ix.at = append(ix.at, x, y)
		} else {
			ix.at = append(ix.at, u, v)
		}
		return
	}
	if j == len(ix.at)/2 {
		j = i // j was the last slot, which moved into i
	}
	ix.cut(j)
	if kept {
		ix.rekey(u, v, u, y)
		ix.rekey(x, y, x, v)
		ix.at = append(ix.at, u, y, x, v)
	} else {
		ix.at = append(ix.at, x, y, u, v)
	}
}

// Policy maps an objective delta to an accept/reject decision.
type Policy func(rng *rand.Rand, delta float64) bool

// PolicyMinimize accepts strictly improving (negative-delta) moves.
func PolicyMinimize(_ *rand.Rand, d float64) bool { return d < 0 }

// PolicyMaximize accepts strictly increasing moves.
func PolicyMaximize(_ *rand.Rand, d float64) bool { return d > 0 }

// PolicyMetropolis returns the simulated-annealing acceptance rule of
// Section 4.1.4 at fixed temperature T: improving moves always pass,
// worsening moves pass with probability exp(−Δ/T). T = 0 degenerates to
// PolicyMinimize (the paper's zero-temperature targeting).
func PolicyMetropolis(T float64) Policy {
	return func(rng *rand.Rand, d float64) bool {
		if d < 0 {
			return true
		}
		if T <= 0 {
			return false
		}
		return rng.Float64() < math.Exp(-d/T)
	}
}

// NewRewirer validates and prepares a rewiring run over g.
func NewRewirer(g *graph.CSR, depth int, rng *rand.Rand) (*Rewirer, error) {
	if depth < 0 || depth > 3 {
		return nil, fmt.Errorf("generate: rewiring depth %d outside 0..3", depth)
	}
	if rng == nil {
		return nil, fmt.Errorf("generate: rewiring requires a random source")
	}
	if g.M() < 2 {
		return nil, fmt.Errorf("generate: graph has %d edges; need at least 2", g.M())
	}
	r := &Rewirer{G: g, Depth: depth, Rng: rng}
	r.deg = g.DegreeSequence()
	if depth == 3 {
		r.tracker = subgraphs.NewTracker(g, r.deg)
		r.td = r.tracker.NewDelta()
	}
	return r, nil
}

// AcceptedMoves returns the accepted-move log recorded when RecordMoves
// is set, in acceptance order.
func (r *Rewirer) AcceptedMoves() []Move { return r.moves }

// Step proposes and evaluates one candidate move, updating r.Stats. It
// reports whether a move was accepted; attempts that fail structural
// constraints return (false, nil). Objective-free runs at depths 2 and 3
// draw same-class end pairs (see stepEnds); other runs draw scored moves
// by edge slot (see drawMove).
func (r *Rewirer) Step() (bool, error) {
	if r.Depth >= 2 && r.Obj == nil {
		return r.stepEnds()
	}
	r.Stats.Attempts++
	m, i, j, rej := r.drawMove()
	if rej == rejectNone && r.tracker != nil && !r.censusKept(m.U, m.V, m.X, m.Y) {
		rej = rejectCensusChanged
	}
	if rej != rejectNone {
		r.Stats.Rejected.count(rej)
		return false, nil
	}
	return r.settle(m, i, j), nil
}

// drawMove draws one scored candidate move for the configured depth
// from r.Rng and checks its structural constraints up to depth 2 (Step
// runs the depth-3 census check after it). Each edge is the end index's
// slot Intn(M), oriented as EdgeAt orients it; depth 0 then draws X and
// Y, depth 1+ a second edge and one orientation flip each. Every draw
// happens before any check, and the checks run cheapest first, so the
// order decides only which reason a rejection counts under.
func (r *Rewirer) drawMove() (m Move, i, j int, rej rejectReason) {
	ix, rng := r.endsIndex(), r.Rng
	i = rng.Intn(len(ix.at) / 2)
	m.U, m.V = ix.edge(i)
	if r.Depth == 0 {
		m.X, m.Y = rng.Intn(r.G.N()), rng.Intn(r.G.N())
		switch {
		case m.X == m.Y:
			rej = rejectSelfLoop
		case ix.edges.has(edgeKey(int32(m.X), int32(m.Y))):
			rej = rejectDuplicateEdge
		}
		return m, i, 0, rej
	}
	j = rng.Intn(len(ix.at) / 2)
	m.X, m.Y = ix.edge(j)
	if rng.Intn(2) == 0 {
		m.U, m.V = m.V, m.U
	}
	if rng.Intn(2) == 0 {
		m.X, m.Y = m.Y, m.X
	}
	m.Depth = r.Depth
	// Candidate swap: (u,v),(x,y) → (u,y),(x,v).
	u, v, x, y := m.U, m.V, m.X, m.Y
	switch {
	case u == x || u == y || v == x || v == y:
		rej = rejectSelfLoop
	case r.Depth >= 2 && r.deg[v] != r.deg[y] && r.deg[u] != r.deg[x]:
		// JDD preservation: the multiset {(du,dv),(dx,dy)} must equal
		// {(du,dy),(dx,dv)}, which holds iff dv = dy or du = dx. Four
		// degree loads, ahead of the duplicate probe's two hash lookups:
		// most proposals fail here.
		rej = rejectJDDMismatch
	case ix.edges.has(edgeKey(int32(u), int32(y))) || ix.edges.has(edgeKey(int32(x), int32(v))):
		rej = rejectDuplicateEdge
	}
	return m, i, j, rej
}

// settle runs the acceptance pipeline on a scored move drawn from slots
// i and j that passed the structural checks: objective score and policy
// (before the move touches the graph), the move on G's windows, the
// connectivity veto, and the commit. The end index records the outcome
// either way (see endIndex.requeue).
func (r *Rewirer) settle(m Move, i, j int) bool {
	kept := true
	var delta float64
	if r.Obj != nil {
		delta = r.Obj.Score(m)
		if r.Accept != nil && !r.Accept(r.Rng, delta) {
			kept = false
			r.Stats.Rejected.Objective++
		}
	}
	if kept && !r.deferG {
		r.edit(m, false)
		if r.PreserveConnectivity && !graph.IsConnected(r.G) {
			r.edit(m, true)
			kept = false
			r.Stats.Rejected.Disconnected++
		}
	}
	r.ends.requeue(m, i, j, kept)
	if !kept {
		r.Stats.Reverted++
		return false
	}
	if r.Obj != nil {
		r.Obj.Commit(m)
		r.objSum += delta
	}
	if r.tracker != nil {
		r.tracker.ApplySwap(m.U, m.V, m.X, m.Y)
	}
	// Depth-0 moves change degrees; keep the cache honest.
	if m.Depth == 0 {
		r.deg[m.U]--
		r.deg[m.V]--
		r.deg[m.X]++
		r.deg[m.Y]++
	}
	if r.RecordMoves {
		r.moves = append(r.moves, m)
	}
	r.Stats.Accepted++
	return true
}

// edit applies m to G's neighbor windows, or with undo takes it back: a
// swap rewrites both edges in place, a depth-0 move removes one edge and
// adds another.
func (r *Rewirer) edit(m Move, undo bool) {
	if m.Depth == 0 {
		if undo {
			m.U, m.V, m.X, m.Y = m.X, m.Y, m.U, m.V
		}
		r.G.RemoveEdge(m.U, m.V)
		mustAdd(r.G, m.X, m.Y)
	} else if undo {
		mustSwap(r.G, m.U, m.Y, m.X, m.V)
	} else {
		mustSwap(r.G, m.U, m.V, m.X, m.Y)
	}
}

// mustSwap is CSR.SwapEnds of a swap that passed the structural checks.
func mustSwap(g *graph.CSR, u, v, x, y int) {
	if err := g.SwapEnds(u, v, x, y); err != nil {
		panic("generate: internal invariant violated: " + err.Error())
	}
}

// sync writes the edge list of the end index back to G if G has fallen
// behind it (see Rewirer.G): one in-place rebuild from at, in slot order.
func (r *Rewirer) sync() {
	if ix := r.ends; ix != nil && ix.stale {
		r.G.RebuildEdges(ix.at)
		ix.stale = false
	}
}

// censusKept reports whether the JDD-preserving swap
// (u,v),(x,y) → (u,y),(x,v) leaves the wedge/triangle census unchanged.
func (r *Rewirer) censusKept(u, v, x, y int) bool {
	r.tracker.SwapDelta(r.td, u, v, x, y)
	return r.td.IsZero()
}

// endsIndex returns the end index, building it on first use.
func (r *Rewirer) endsIndex() *endIndex {
	if r.ends == nil {
		r.ends = newEndIndex(r.G)
	}
	return r.ends
}

// stepEnds runs one objective-free proposal at depth 2 or 3: a swap
// (u,v),(x,y) → (u,y),(x,v) of two ends u→v and x→y whose far nodes have
// equal degree, so it preserves the JDD by construction. Depth 2 takes
// u→v uniform over all 2M ends, then x→y uniform over the ends whose far
// node has degree deg(v); the pair comes from the block Run drew ahead
// (see endIndex.draw), and with none left, as for a direct Step, it
// draws a block of one. Depth 3 draws the pair uniform over all ordered
// same-class pairs (see endIndex.drawPair) and computes the census delta
// of the swaps that pass the structural checks, and only of those. Both
// draws pick the reverse swap from the same unchanged classes with the
// same probability, so the chain keeps the uniform stationary
// distribution of drawMove's swaps. The checks read the ends' nodes
// afresh from at.
func (r *Rewirer) stepEnds() (bool, error) {
	ix := r.endsIndex()
	var a, b int
	if r.tracker != nil {
		a, b = ix.drawPair(r.Rng, r.deg)
	} else {
		if ix.next == ix.n {
			ix.draw(r.Rng, r.deg, 1)
		}
		a, b = int(ix.drawn[ix.next][0]), int(ix.drawn[ix.next][1])
		ix.next++
	}
	r.Stats.Attempts++
	u, v := int(ix.at[a]), int(ix.at[a^1])
	x, y := int(ix.at[b]), int(ix.at[b^1])
	if u == x || u == y || v == x || v == y {
		r.Stats.Rejected.SelfLoop++
		return false, nil
	}
	if ix.edges.has(edgeKey(int32(u), int32(y))) || ix.edges.has(edgeKey(int32(x), int32(v))) {
		r.Stats.Rejected.DuplicateEdge++
		return false, nil
	}
	if r.tracker != nil && !r.censusKept(u, v, x, y) {
		r.Stats.Rejected.CensusChanged++
		return false, nil
	}
	if r.deferG {
		ix.swap(nil, a, b)
	} else {
		ix.swap(r.G, a, b)
	}
	if r.PreserveConnectivity && !graph.IsConnected(r.G) {
		ix.swap(r.G, a, b)
		r.Stats.Rejected.Disconnected++
		r.Stats.Reverted++
		return false, nil
	}
	if r.tracker != nil {
		r.tracker.ApplySwap(u, v, x, y)
	}
	if r.RecordMoves {
		r.moves = append(r.moves, Move{U: u, V: v, X: x, Y: y, Depth: r.Depth})
	}
	r.Stats.Accepted++
	return true, nil
}

// RewireProgress is one periodic convergence sample of a rewiring run —
// the practical mixing evidence for an MCMC process with no a-priori
// mixing guarantee. Window fields cover the attempts since the previous
// sample; cumulative fields cover the whole run. Samples are purely
// observational and never feed back into the run.
type RewireProgress struct {
	Sweep          int     // 1-based sample index
	Attempts       int     // cumulative proposals examined
	Accepted       int     // cumulative moves accepted
	WindowAttempts int     // proposals examined since the previous sample
	WindowAccepted int     // moves accepted since the previous sample
	AcceptanceRate float64 // WindowAccepted / WindowAttempts
	// Rejected holds the window's rejection deltas by reason.
	Rejected RejectionBreakdown
	// Objective is the objective's cumulative committed change since the
	// run began; meaningful only when HasObjective (an Objective is set).
	Objective    float64
	HasObjective bool
}

// sub returns the per-reason difference a − b.
func (b RejectionBreakdown) sub(o RejectionBreakdown) RejectionBreakdown {
	return RejectionBreakdown{
		SelfLoop:      b.SelfLoop - o.SelfLoop,
		DuplicateEdge: b.DuplicateEdge - o.DuplicateEdge,
		JDDMismatch:   b.JDDMismatch - o.JDDMismatch,
		CensusChanged: b.CensusChanged - o.CensusChanged,
		Objective:     b.Objective - o.Objective,
		Disconnected:  b.Disconnected - o.Disconnected,
	}
}

// Run performs up to maxAttempts proposals, stopping early after accepted
// moves reach wantAccepted (0 means no acceptance target), after
// patience consecutive rejections (0 or negative means unlimited
// patience), or at zero objective when the Rewirer stops there. The
// returned stats are the Rewirer's cumulative r.Stats (identical to the
// run's own when the Rewirer is fresh). With OnProgress set, Run emits a
// convergence sample every ProgressEvery attempts and a final one at
// whatever attempt count the run stopped on. On return, r.G holds the
// EdgeAt order of the run's moves (see Rewirer.G).
func (r *Rewirer) Run(wantAccepted, maxAttempts, patience int) (RewireStats, error) {
	defer r.sync()
	var ix *endIndex
	if r.Depth == 2 && r.Obj == nil {
		ix = r.endsIndex()
	}
	if r.Obj == nil && r.Depth < 3 && !r.PreserveConnectivity {
		r.deferG = true
		defer func() { r.deferG = false }()
	}
	every := r.ProgressEvery
	if every <= 0 {
		every = r.G.M() // one sample per sweep (M proposals)
	}
	r.stop = StopMaxAttempts
	if r.atZero() {
		r.stop, maxAttempts = StopZero, 0
	}
	last := r.Stats
	sweep := 0
	emit := func() {
		sweep++
		cur := r.Stats
		p := RewireProgress{
			Sweep:          sweep,
			Attempts:       cur.Attempts,
			Accepted:       cur.Accepted,
			WindowAttempts: cur.Attempts - last.Attempts,
			WindowAccepted: cur.Accepted - last.Accepted,
			Rejected:       cur.Rejected.sub(last.Rejected),
		}
		if p.WindowAttempts > 0 {
			p.AcceptanceRate = float64(p.WindowAccepted) / float64(p.WindowAttempts)
		}
		if r.Obj != nil {
			p.Objective, p.HasObjective = r.objSum, true
		}
		last = cur
		r.OnProgress(p)
	}
	sinceAccept := 0
	accepted := 0
	for attempts := 0; attempts < maxAttempts; attempts++ {
		if ix != nil && ix.next == ix.n {
			// Draw no further than the next point where the run may stop
			// or sample: those checks then fall only on a block's last
			// attempt, and r.Rng ends where single draws leave it.
			k := min(endBlock, maxAttempts-attempts)
			if wantAccepted > 0 {
				k = min(k, wantAccepted-accepted)
			}
			if patience > 0 {
				k = min(k, patience-sinceAccept)
			}
			if r.OnProgress != nil {
				k = min(k, every-(r.Stats.Attempts-last.Attempts))
			}
			ix.draw(r.Rng, r.deg, k)
		}
		ok, err := r.Step()
		if err != nil {
			return r.Stats, err
		}
		if r.OnProgress != nil && r.Stats.Attempts-last.Attempts >= every {
			emit()
		}
		if ok {
			accepted++
			sinceAccept = 0
			if r.atZero() {
				r.stop = StopZero
				break
			}
			if wantAccepted > 0 && accepted >= wantAccepted {
				break
			}
		} else {
			sinceAccept++
			if patience > 0 && sinceAccept >= patience {
				r.stop = StopPatience
				break
			}
		}
	}
	if r.OnProgress != nil && r.Stats.Attempts > last.Attempts {
		emit()
	}
	return r.Stats, nil
}

// atZero reports whether Run stops at zero objective and is there.
func (r *Rewirer) atZero() bool {
	return r.stopAtZero && r.zeroAt+r.objSum == 0
}

// The budget of a Randomize run, in multiples of M: at most
// randomizeAttempts proposals per wanted swap (randomizeAttempts3K at
// depth 3, where census changes reject most JDD-preserving swaps), and a
// stop after randomizePatience·M consecutive rejected proposals. Depth-3
// runs on heavily constrained graphs converge by exhausting their tiny
// set of census-preserving swaps, which the patience bounds cleanly.
const (
	randomizeAttempts   = 10
	randomizeAttempts3K = 40
	randomizePatience   = 10
)

// RandomizeOptions configures dK-randomizing rewiring.
type RandomizeOptions struct {
	Rng *rand.Rand
	// SwapFactor scales the accepted-swap target: SwapFactor·M successful
	// swaps (default 10, following the paper's 10× convention and the
	// O(m) mixing result it cites). The run makes at most 10·SwapFactor·M
	// proposals (40·SwapFactor·M at depth 3) and stops after 10·M
	// consecutive rejected ones.
	SwapFactor int
	// PreserveConnectivity rejects disconnecting moves (expensive).
	PreserveConnectivity bool
	// OnProgress and ProgressEvery mirror the Rewirer fields: periodic
	// convergence samples, observational only (see RewireProgress).
	OnProgress    func(RewireProgress)
	ProgressEvery int
}

// Randomize applies dK-preserving randomizing rewiring (Section 4.1.4) to
// a copy of g, returning the rewired graph. The input graph is unchanged.
func Randomize(g *graph.CSR, depth int, opt RandomizeOptions) (*graph.CSR, RewireStats, error) {
	if opt.Rng == nil {
		return nil, RewireStats{}, fmt.Errorf("generate: Randomize requires Rng")
	}
	out := g.Clone()
	r, err := NewRewirer(out, depth, opt.Rng)
	if err != nil {
		return nil, RewireStats{}, err
	}
	r.PreserveConnectivity = opt.PreserveConnectivity
	r.OnProgress = opt.OnProgress
	r.ProgressEvery = opt.ProgressEvery
	swapFactor := opt.SwapFactor
	if swapFactor <= 0 {
		swapFactor = 10
	}
	want := swapFactor * g.M()
	budget := randomizeAttempts * want
	if depth == 3 {
		budget = randomizeAttempts3K * want
	}
	st, err := r.Run(want, budget, randomizePatience*g.M())
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
