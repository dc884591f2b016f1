package generate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/parallel"
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
// unchanged. Objective-free depth-2 rewiring draws Y from the ends whose
// far node has degree deg(V), so its moves satisfy deg(V) = deg(Y) by
// construction and none fails the JDD test.
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
// searches two adjacency windows, so a proposal that is both a
// duplicate and a JDD mismatch counts as JDDMismatch. The structural
// reasons and the objective are decided before the move touches the
// graph; connectivity rejections apply the move first and roll it back.
// Objective and connectivity rejections also count in
// RewireStats.Reverted. Objective-free depth-2 rewiring proposes only
// JDD-preserving swaps, so it never counts a JDDMismatch.
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

// DefaultBatchSize is the number of depth-3 candidate proposals drawn and
// evaluated per parallel batch (see Rewirer.BatchSize). Sized so one
// batch amortizes the pool dispatch: most candidates die in the cheap
// structural checks, and only the survivors pay for a census delta.
const DefaultBatchSize = 256

// splitMix is the candidate-draw generator of the batched proposer: a
// SplitMix64 stream, ~free to seed — candidates are drawn by the
// thousand per accepted move, and seeding a rand.Rand (607-word state)
// per candidate would cost more than the checks it feeds. Modulo
// reduction gives Intn a bias of n/2⁶⁴, irrelevant here: the contract
// is determinism of the (seed, BatchSize) → stream function, not
// perfect uniformity.
type splitMix struct{ s uint64 }

func (r *splitMix) Intn(n int) int {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(n))
}

// intner is the candidate-draw interface shared by the sequential path
// (*rand.Rand) and the batched path (*splitMix).
type intner interface{ Intn(n int) int }

// Rewirer performs dK-preserving rewiring on a mutable graph with an
// optional Objective scoring each candidate move and an acceptance Policy
// deciding from the objective delta. A nil objective with the default
// policy yields pure dK-randomizing rewiring.
type Rewirer struct {
	// G is the graph being rewired. It holds every accepted move
	// whenever neither Step nor Run is executing. Inside Run's own loop,
	// objective-free depth-2 rewiring without PreserveConnectivity
	// applies its swaps to the end index and its edge set only, and
	// rebuilds G from them once, in place, when Run returns (error
	// returns included); OnProgress callbacks of such a run see G as it
	// was when Run began. Every objective-free depth-2 run draws its
	// swaps from the end index, never from G, a block of attempts ahead
	// of their checks (see endIndex.draw).
	G     *graph.CSR
	Depth int // preserved depth d: 0, 1, 2 or 3
	Rng   *rand.Rand
	// Obj scores candidate moves; nil accepts unconditionally (subject to
	// the structural constraints of Depth). Set it before the first Step:
	// at depth 2 it selects the proposer, and the objective-free one keeps
	// an index of the edges that only its own moves update.
	Obj Objective
	// Accept decides from the objective delta; nil accepts everything.
	Accept Policy
	// PreserveConnectivity rejects moves that disconnect the graph
	// (checked by BFS after each accepted move — expensive; the paper
	// itself does not check and extracts GCCs afterwards).
	PreserveConnectivity bool
	// BatchSize is the number of depth-3 candidates drawn and evaluated
	// per parallel batch (default DefaultBatchSize; 1 degenerates to a
	// serial loop with the same accepted-move stream). The stream is a
	// pure function of (seed, BatchSize) — it never depends on the
	// worker count.
	BatchSize int
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

	deg     []int
	tracker *subgraphs.Tracker // depth-3 census machinery, else nil
	scratch []*subgraphs.TrackerDelta
	queue   []candidate
	qPos    int
	// Dirty-node filter: accepting a move changes only its four
	// endpoints' neighborhoods, so queued candidates sharing none of
	// those nodes remain exactly valid (structural checks and census
	// delta alike) and keep being consumed; candidates touching a dirty
	// node are skipped. dirtyList clears the array at the next refill.
	dirty     []bool
	dirtyList []int
	moves     []Move
	ends      *endIndex // objective-free depth-2 proposer, built by the first Step
	deferG    bool      // Run's loop is leaving the ends' swaps out of G
}

// endBlock is the most objective-free depth-2 attempts drawn ahead of
// their checks (see endIndex.draw). BenchmarkRewireD2PowerLaw reads the
// same within noise at 16, 64 and 256: a few dozen attempts in flight
// already overlap the misses.
const endBlock = 64

// endIndex is the proposal state of objective-free depth-2 rewiring. An
// oriented edge end a = edge<<1|side runs from its near node at[a] to its
// far node at[a^1]. byFar lists every end grouped by the degree of its
// far node: class k is byFar[class[k]:class[k+1]]. A 2K swap exchanges
// the far nodes of two ends in one class, which moves no end to another
// class, so only the two far entries of at change. Read in pairs, at is
// also the edge list in slot order: edge i joins at[2i] and at[2i+1],
// which is EdgeAt(i) up to orientation. edges answers the duplicate
// probes. stale reports swaps not yet written back to the graph.
//
// drawn[next:n] are the end pairs (a, b) of attempts drawn but not yet
// checked; sink folds the values draw touches, so those loads stay live.
type endIndex struct {
	at    []int32
	byFar []uint32
	class []int32
	edges *edgeSet
	stale bool

	drawn   [endBlock][2]uint32
	next, n int
	sink    uint64
}

// newEndIndex builds the end index of g by counting sort, in O(n + m).
func newEndIndex(g *graph.CSR, deg []int) *endIndex {
	m := g.M()
	ix := &endIndex{
		at:    make([]int32, 2*m),
		byFar: make([]uint32, 2*m),
		class: make([]int32, g.MaxDegree()+2),
		edges: newEdgeSet(m),
	}
	for i := 0; i < m; i++ {
		e := g.EdgeAt(i)
		u, v := int32(e.U), int32(e.V)
		ix.at[2*i], ix.at[2*i+1] = u, v
		ix.edges.insert(edgeKey(u, v))
		ix.class[deg[e.U]+1]++
		ix.class[deg[e.V]+1]++
	}
	for k := 1; k < len(ix.class); k++ {
		ix.class[k] += ix.class[k-1]
	}
	fill := append([]int32(nil), ix.class...)
	for a := range ix.at {
		k := deg[ix.at[a^1]]
		ix.byFar[fill[k]] = uint32(a)
		fill[k]++
	}
	return ix
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

// swap exchanges the far nodes of ends a and b: the 2K swap
// (u,v),(x,y) → (u,y),(x,v). It updates the edge set, and g in place
// unless g is nil; then g falls behind until sync. It is its own
// inverse.
func (ix *endIndex) swap(g *graph.CSR, a, b int) {
	u, v, x, y := ix.at[a], ix.at[a^1], ix.at[b], ix.at[b^1]
	if !ix.edges.remove(edgeKey(u, v)) || !ix.edges.remove(edgeKey(x, y)) ||
		!ix.edges.insert(edgeKey(u, y)) || !ix.edges.insert(edgeKey(x, v)) {
		panic(fmt.Sprintf("generate: internal invariant violated: swap (%d,%d),(%d,%d) disagrees with the edge set", u, v, x, y))
	}
	if g == nil {
		ix.stale = true
	} else if err := g.SwapEnds(int(u), int(v), int(x), int(y)); err != nil {
		panic("generate: internal invariant violated: " + err.Error())
	}
	ix.at[a^1], ix.at[b^1] = y, v
}

// sync writes the swaps left out of g back to it: one in-place rebuild
// from the edge list at holds in slot order.
func (ix *endIndex) sync(g *graph.CSR) {
	if ix.stale {
		g.RebuildEdges(ix.at)
		ix.stale = false
	}
}

// candidate is one speculatively drawn and structurally evaluated
// depth-3 proposal, produced by fillBatch and consumed in index order.
type candidate struct {
	m      Move
	reject rejectReason
}

// Policy maps an objective delta to an accept/reject decision.
type Policy func(rng *rand.Rand, delta float64) bool

// PolicyAlways accepts every structurally valid move (randomizing).
func PolicyAlways(*rand.Rand, float64) bool { return true }

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
	}
	return r, nil
}

// AcceptedMoves returns the accepted-move log recorded when RecordMoves
// is set, in acceptance order.
func (r *Rewirer) AcceptedMoves() []Move { return r.moves }

// propose draws one candidate move for the configured depth from rng and
// checks its structural constraints up to depth 2 (the depth-3 census
// check is separate — it is the expensive one and runs batched). Every
// draw happens before any check, and the checks run cheapest first, so
// the order decides only which reason a rejection counts under.
func (r *Rewirer) propose(rng intner) (Move, rejectReason) {
	g := r.G
	if r.Depth == 0 {
		e := g.EdgeAt(rng.Intn(g.M()))
		x, y := rng.Intn(g.N()), rng.Intn(g.N())
		if x == y {
			return Move{}, rejectSelfLoop
		}
		if g.HasEdge(x, y) {
			return Move{}, rejectDuplicateEdge
		}
		return Move{U: e.U, V: e.V, X: x, Y: y, Depth: 0}, rejectNone
	}
	e1 := g.EdgeAt(rng.Intn(g.M()))
	e2 := g.EdgeAt(rng.Intn(g.M()))
	u, v := e1.U, e1.V
	x, y := e2.U, e2.V
	if rng.Intn(2) == 0 {
		u, v = v, u
	}
	if rng.Intn(2) == 0 {
		x, y = y, x
	}
	// Candidate swap: (u,v),(x,y) → (u,y),(x,v).
	if u == x || u == y || v == x || v == y {
		return Move{}, rejectSelfLoop
	}
	if r.Depth >= 2 {
		// JDD preservation: the multiset {(du,dv),(dx,dy)} must equal
		// {(du,dy),(dx,dv)}, which holds iff dv = dy or du = dx. Four
		// degree loads, ahead of the duplicate probe's window searches:
		// most proposals fail here.
		if r.deg[v] != r.deg[y] && r.deg[u] != r.deg[x] {
			return Move{}, rejectJDDMismatch
		}
	}
	if r.tracker != nil {
		// Depth 3: probe the tracker mirror — O(1) bitset hits on hubs
		// instead of hashing into their adjacency maps; proposals are drawn
		// by the thousand per accepted move, so this is hot.
		if r.tracker.Has(u, y) || r.tracker.Has(x, v) {
			return Move{}, rejectDuplicateEdge
		}
	} else if g.HasEdge(u, y) || g.HasEdge(x, v) {
		return Move{}, rejectDuplicateEdge
	}
	return Move{U: u, V: v, X: x, Y: y, Depth: r.Depth}, rejectNone
}

// apply performs the move's edge operations.
func (r *Rewirer) apply(m Move) {
	g := r.G
	if m.Depth == 0 {
		g.RemoveEdge(m.U, m.V)
		mustAdd(g, m.X, m.Y)
		return
	}
	g.RemoveEdge(m.U, m.V)
	g.RemoveEdge(m.X, m.Y)
	mustAdd(g, m.U, m.Y)
	mustAdd(g, m.X, m.V)
}

// decline leaves the edge list exactly as apply followed by revert
// would, without touching the adjacency: EdgeAt draws after an
// objective rejection, and so every seed's output, do not depend on
// whether the rejected move was ever applied.
func (r *Rewirer) decline(m Move) {
	if m.Depth == 0 {
		r.G.RequeueEdges(graph.Edge{U: m.U, V: m.V})
		return
	}
	r.G.RequeueEdges(graph.Edge{U: m.U, V: m.V}, graph.Edge{U: m.X, V: m.Y})
}

// revert undoes a move applied by apply (inverse operations in reverse
// order).
func (r *Rewirer) revert(m Move) {
	g := r.G
	if m.Depth == 0 {
		g.RemoveEdge(m.X, m.Y)
		mustAdd(g, m.U, m.V)
		return
	}
	g.RemoveEdge(m.X, m.V)
	g.RemoveEdge(m.U, m.Y)
	mustAdd(g, m.X, m.Y)
	mustAdd(g, m.U, m.V)
}

// Step proposes and evaluates one candidate move, updating r.Stats. It
// reports whether a move was accepted; attempts that fail structural
// constraints return (false, nil). At depth 3 proposals come from the
// batched parallel pipeline; objective-free depth 2 draws from the end
// index; other runs draw directly from r.Rng through propose.
func (r *Rewirer) Step() (bool, error) {
	switch {
	case r.Depth == 3:
		return r.stepBatched()
	case r.Depth == 2 && r.Obj == nil:
		return r.stepEnds()
	}
	r.Stats.Attempts++
	m, rej := r.propose(r.Rng)
	if rej != rejectNone {
		r.Stats.Rejected.count(rej)
		return false, nil
	}
	return r.finish(m)
}

// endsIndex returns the end index, building it on first use.
func (r *Rewirer) endsIndex() *endIndex {
	if r.ends == nil {
		r.ends = newEndIndex(r.G, r.deg)
	}
	return r.ends
}

// stepEnds runs one objective-free depth-2 proposal. It takes an end
// u→v uniform over all 2M ends, then an end x→y uniform over the ends
// whose far node has degree deg(v), so the swap (u,v),(x,y) → (u,y),(x,v)
// preserves the JDD by construction. The reverse swap is drawn from the
// same unchanged class with the same probability, so the chain keeps the
// uniform stationary distribution of propose's moves. The pair comes
// from the block Run drew ahead (see endIndex.draw); with none left, as
// for a direct Step, it draws a block of one. The checks read the ends'
// nodes afresh from at.
func (r *Rewirer) stepEnds() (bool, error) {
	ix := r.endsIndex()
	if ix.next == ix.n {
		ix.draw(r.Rng, r.deg, 1)
	}
	a, b := int(ix.drawn[ix.next][0]), int(ix.drawn[ix.next][1])
	ix.next++
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
	if r.RecordMoves {
		r.moves = append(r.moves, Move{U: u, V: v, X: x, Y: y, Depth: 2})
	}
	r.Stats.Accepted++
	return true, nil
}

// stepBatched consumes one pre-evaluated depth-3 candidate, refilling the
// batch when it runs dry. Candidates whose endpoints overlap a move
// accepted since the batch was evaluated are skipped (their checks are
// stale); all others are exactly as valid as at evaluation time, because
// an accepted swap changes only its own four endpoints' neighborhoods.
// Rejected moves leave the graph unchanged and invalidate nothing.
func (r *Rewirer) stepBatched() (bool, error) {
	for {
		if r.qPos >= len(r.queue) {
			r.fillBatch()
		}
		c := r.queue[r.qPos]
		r.qPos++
		if len(r.dirtyList) > 0 && (r.dirty[c.m.U] || r.dirty[c.m.V] || r.dirty[c.m.X] || r.dirty[c.m.Y]) {
			continue
		}
		r.Stats.Attempts++
		if c.reject != rejectNone {
			r.Stats.Rejected.count(c.reject)
			return false, nil
		}
		accepted, err := r.finish(c.m)
		if accepted {
			for _, node := range [4]int{c.m.U, c.m.V, c.m.X, c.m.Y} {
				if !r.dirty[node] {
					r.dirty[node] = true
					r.dirtyList = append(r.dirtyList, node)
				}
			}
		}
		return accepted, err
	}
}

// finish runs the acceptance pipeline on a structurally valid move:
// objective score and policy (before the move touches the graph), apply,
// connectivity veto, commit.
func (r *Rewirer) finish(m Move) (bool, error) {
	var delta float64
	if r.Obj != nil {
		delta = r.Obj.Score(m)
		accept := r.Accept
		if accept == nil {
			accept = PolicyAlways
		}
		if !accept(r.Rng, delta) {
			r.decline(m)
			r.Stats.Rejected.Objective++
			r.Stats.Reverted++
			return false, nil
		}
	}
	r.apply(m)
	if r.PreserveConnectivity && !graph.IsConnected(r.G) {
		r.revert(m)
		r.Stats.Rejected.Disconnected++
		r.Stats.Reverted++
		return false, nil
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
	return true, nil
}

// fillBatch speculatively draws BatchSize depth-3 candidates and runs
// their structural and census checks in parallel, read-only against the
// current graph. Determinism: one batch seed is drawn from r.Rng, each
// candidate i derives its own SplitMix64 stream via
// parallel.SubSeed(batchSeed, i), and every check is a pure function of
// (graph, candidate) — so the evaluated batch, and therefore the
// accepted-move stream, is bit-identical at any worker count. Workers
// reuse per-worker TrackerDelta scratch (stable worker ids from
// parallel.ForWorkers), allocated lazily so nested parallelism that
// degrades to one inline worker pays for one scratch, not Workers() of
// them.
func (r *Rewirer) fillBatch() {
	k := r.BatchSize
	if k <= 0 {
		k = DefaultBatchSize
	}
	batchSeed := r.Rng.Int63()
	if cap(r.queue) < k {
		r.queue = make([]candidate, k)
	}
	r.queue = r.queue[:k]
	r.qPos = 0
	if r.dirty == nil {
		r.dirty = make([]bool, r.G.N())
	}
	for _, node := range r.dirtyList {
		r.dirty[node] = false
	}
	r.dirtyList = r.dirtyList[:0]
	w := parallel.Workers()
	if w > k {
		w = k
	}
	for len(r.scratch) < w {
		r.scratch = append(r.scratch, nil)
	}
	parallel.ForWorkers(w, k, func(worker, i int) {
		rng := &splitMix{s: uint64(parallel.SubSeed(batchSeed, i))}
		m, rej := r.propose(rng)
		if rej == rejectNone {
			td := r.scratch[worker]
			if td == nil {
				td = r.tracker.NewDelta()
				r.scratch[worker] = td
			}
			// propose already enforced the depth-2 JDD condition that
			// SwapDelta requires.
			r.tracker.SwapDelta(td, m.U, m.V, m.X, m.Y)
			if !td.IsZero() {
				rej = rejectCensusChanged
			}
		}
		r.queue[i] = candidate{m: m, reject: rej}
	})
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
// moves reach wantAccepted (0 means no acceptance target) or after
// patience consecutive rejections (0 means unlimited patience). The
// returned stats are the Rewirer's cumulative r.Stats (identical to the
// run's own when the Rewirer is fresh). With OnProgress set, Run emits a
// convergence sample every ProgressEvery attempts and a final one at
// whatever attempt count the run stopped on. Objective-free depth-2
// runs without PreserveConnectivity write their swaps back to r.G once,
// on return (see Rewirer.G).
func (r *Rewirer) Run(wantAccepted, maxAttempts, patience int) (RewireStats, error) {
	var ix *endIndex
	if r.Depth == 2 && r.Obj == nil {
		ix = r.endsIndex()
		if !r.PreserveConnectivity {
			r.deferG = true
			defer func() {
				r.deferG = false
				ix.sync(r.G)
			}()
		}
	}
	every := r.ProgressEvery
	if every <= 0 {
		every = r.G.M() // one sample per sweep (M proposals)
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
			if wantAccepted > 0 && accepted >= wantAccepted {
				break
			}
		} else {
			sinceAccept++
			if patience > 0 && sinceAccept >= patience {
				break
			}
		}
	}
	if r.OnProgress != nil && r.Stats.Attempts > last.Attempts {
		emit()
	}
	return r.Stats, nil
}

// RandomizeOptions configures dK-randomizing rewiring.
type RandomizeOptions struct {
	Rng *rand.Rand
	// SwapFactor scales the accepted-swap target: SwapFactor·M successful
	// swaps (default 10, following the paper's 10× convention and the
	// O(m) mixing result it cites).
	SwapFactor int
	// AttemptFactor scales the proposal budget: AttemptFactor·M proposals
	// (default 40·SwapFactor for depth 3 — whose acceptance rate is tiny
	// by design — and 10·SwapFactor otherwise).
	AttemptFactor int
	// PatienceFactor stops the run after PatienceFactor·M consecutive
	// rejected proposals (default 10; negative disables). Depth-3 runs on
	// heavily constrained graphs converge by exhausting their tiny set of
	// census-preserving swaps, which this bounds cleanly.
	PatienceFactor int
	// BatchSize overrides the depth-3 candidate batch size (default
	// DefaultBatchSize). Part of the RNG-stream contract: changing it
	// changes which moves are accepted, worker count never does.
	BatchSize int
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
	r.BatchSize = opt.BatchSize
	r.OnProgress = opt.OnProgress
	r.ProgressEvery = opt.ProgressEvery
	swapFactor := opt.SwapFactor
	if swapFactor <= 0 {
		swapFactor = 10
	}
	attemptFactor := opt.AttemptFactor
	if attemptFactor <= 0 {
		attemptFactor = 10 * swapFactor
		if depth == 3 {
			attemptFactor = 40 * swapFactor
		}
	}
	patienceFactor := opt.PatienceFactor
	if patienceFactor == 0 {
		patienceFactor = 10
	}
	patience := 0
	if patienceFactor > 0 {
		patience = patienceFactor * g.M()
	}
	want := swapFactor * g.M()
	budget := attemptFactor * g.M()
	st, err := r.Run(want, budget, patience)
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
