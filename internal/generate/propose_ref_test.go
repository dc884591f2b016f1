package generate

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// proposeRef is the retired per-move proposer (see propose) with its
// checks in the order they ran before the JDD test moved ahead of the
// duplicate probe: self-loop → duplicate edge → JDD mismatch. It returns
// the drawn move whether or not a check rejects it, as drawMove does.
// TestProposeCheckOrderMatchesReference pins drawMove against it.
func (r *Rewirer) proposeRef(rng *rand.Rand) (Move, rejectReason) {
	g := r.G
	if r.Depth == 0 {
		e := g.EdgeAt(rng.Intn(g.M()))
		x, y := rng.Intn(g.N()), rng.Intn(g.N())
		m := Move{U: e.U, V: e.V, X: x, Y: y, Depth: 0}
		if x == y {
			return m, rejectSelfLoop
		}
		if g.HasEdge(x, y) {
			return m, rejectDuplicateEdge
		}
		return m, rejectNone
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
	m := Move{U: u, V: v, X: x, Y: y, Depth: r.Depth}
	if u == x || u == y || v == x || v == y {
		return m, rejectSelfLoop
	}
	if g.HasEdge(u, y) || g.HasEdge(x, v) {
		return m, rejectDuplicateEdge
	}
	if r.Depth >= 2 {
		if r.deg[v] != r.deg[y] && r.deg[u] != r.deg[x] {
			return m, rejectJDDMismatch
		}
	}
	return m, rejectNone
}

// sameOutcome reports whether the production reason got is one the
// reference reason want allows: the same reason, or a reference
// duplicate-edge rejection that the reordered checks count as a JDD
// mismatch.
func sameOutcome(got, want rejectReason) bool {
	return got == want || (want == rejectDuplicateEdge && got == rejectJDDMismatch)
}

// TestProposeCheckOrderMatchesReference checks that the scored proposer
// on the end index, drawMove, with the JDD test before the duplicate
// probe, changes nothing but the reason a rejection counts under: on the
// differential suite's graph families, every proposal yields the same
// Move and the same accept/reject outcome as proposeRef on the graph's
// own edge list, and a reason differs only as duplicate edge → JDD
// mismatch. Depths 0, 1 and 2 run drawMove; objective-free depth 3 is
// pinned move by move against depth3Ref.
func TestProposeCheckOrderMatchesReference(t *testing.T) {
	const attempts = 20000
	shifted := 0
	for _, fam := range diffFamilies {
		for _, seed := range []int64{11, 42} {
			orig := fam.build(newRng(seed))
			for _, depth := range []int{0, 1, 2} {
				shifted += checkSequentialOrder(t, fam.name, orig, depth, seed, attempts)
			}
			checkDepth3Moves(t, fam.name, orig, seed, attempts/4)
		}
	}
	if shifted == 0 {
		t.Fatal("no proposal was both a duplicate and a JDD mismatch; the reorder went unexercised")
	}
}

// checkSequentialOrder compares drawMove with proposeRef proposal by
// proposal on two rewirers fed the same stream, settling the moves that
// pass on each side's own path (settle, and the retired finish), then
// checks that the drawMove side and a run of Steps reproduce the
// reference run's accepted moves, edge order once written back, and
// stats. It returns the number of reasons that moved to JDD mismatch.
// At depth 2 the rewirers carry a zero-score objective: objective-free
// depth 2 draws same-class end pairs and never calls drawMove.
func checkSequentialOrder(t *testing.T, name string, orig *graph.CSR, depth int, seed int64, attempts int) int {
	t.Helper()
	newR := func() *Rewirer {
		r, err := NewRewirer(orig.Clone(), depth, newRng(seed*31))
		if err != nil {
			t.Fatalf("%s/d%d: %v", name, depth, err)
		}
		r.RecordMoves = true
		if depth == 2 {
			r.Obj = zeroObjective{}
		}
		return r
	}
	got, ref := newR(), newR()
	shifted := 0
	for i := 0; i < attempts; i++ {
		m, si, sj, rej := got.drawMove()
		mr, rejr := ref.proposeRef(ref.Rng)
		if m != mr || !sameOutcome(rej, rejr) {
			t.Fatalf("%s/d%d seed=%d proposal %d: got %+v reason %d, reference %+v reason %d",
				name, depth, seed, i, m, rej, mr, rejr)
		}
		if rej != rejr {
			shifted++
		}
		ref.Stats.Attempts++
		if rejr != rejectNone {
			ref.Stats.Rejected.count(rejr)
			continue
		}
		okGot := got.settle(m, si, sj)
		okRef, errRef := ref.finish(mr)
		if errRef != nil || okGot != okRef {
			t.Fatalf("%s/d%d seed=%d proposal %d: accepted %v, reference %v (%v)",
				name, depth, seed, i, okGot, okRef, errRef)
		}
	}

	step := newR()
	for i := 0; i < attempts; i++ {
		if _, err := step.Step(); err != nil {
			t.Fatalf("%s/d%d: Step: %v", name, depth, err)
		}
	}
	got.sync()
	step.sync()
	for _, side := range []*Rewirer{got, step} {
		if !slices.Equal(side.AcceptedMoves(), ref.AcceptedMoves()) {
			t.Fatalf("%s/d%d seed=%d: accepted a different move sequence", name, depth, seed)
		}
		for i := 0; i < ref.G.M(); i++ {
			if side.G.EdgeAt(i) != ref.G.EdgeAt(i) {
				t.Fatalf("%s/d%d seed=%d: EdgeAt(%d) = %v, reference %v", name, depth, seed, i, side.G.EdgeAt(i), ref.G.EdgeAt(i))
			}
		}
	}
	want := ref.Stats
	want.Rejected.DuplicateEdge -= shifted
	want.Rejected.JDDMismatch += shifted
	if step.Stats != want {
		t.Fatalf("%s/d%d seed=%d: Step stats %+v, want %+v", name, depth, seed, step.Stats, want)
	}
	return shifted
}

// depth3Ref is objective-free depth-3 rewiring written out directly:
// the ends as a plain list of (near, far) nodes in edge-slot order, the
// classes as lists of ends by far degree, the class picked by a linear
// scan, the duplicate probe on the graph and the census check by a full
// recount of the swapped graph.
type depth3Ref struct {
	g       *graph.CSR
	at      []int // end 2i+side; edge i joins at[2i] and at[2i+1]
	classes [][]int
	census  *subgraphs.Census
}

func newDepth3Ref(g *graph.CSR) *depth3Ref {
	ref := &depth3Ref{g: g, census: subgraphs.Count(g)}
	deg := g.DegreeSequence()
	byDeg := map[int][]int{}
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		ref.at = append(ref.at, e.U, e.V)
		byDeg[deg[e.V]] = append(byDeg[deg[e.V]], 2*i)
		byDeg[deg[e.U]] = append(byDeg[deg[e.U]], 2*i+1)
	}
	for _, d := range slices.Sorted(maps.Keys(byDeg)) {
		ref.classes = append(ref.classes, byDeg[d]) // ends in ascending order, as in byFar
	}
	return ref
}

// step runs one attempt and returns its move and outcome.
func (ref *depth3Ref) step(rng *rand.Rand) (Move, rejectReason) {
	total := int64(0)
	for _, c := range ref.classes {
		total += int64(len(c) * len(c))
	}
	t := rng.Int63n(total)
	var c []int
	for _, c = range ref.classes {
		if n := int64(len(c) * len(c)); t >= n {
			t -= n
			continue
		}
		break
	}
	a, b := c[t/int64(len(c))], c[t%int64(len(c))]
	m := Move{U: ref.at[a], V: ref.at[a^1], X: ref.at[b], Y: ref.at[b^1], Depth: 3}
	if m.U == m.X || m.U == m.Y || m.V == m.X || m.V == m.Y {
		return m, rejectSelfLoop
	}
	if ref.g.HasEdge(m.U, m.Y) || ref.g.HasEdge(m.X, m.V) {
		return m, rejectDuplicateEdge
	}
	swapped := ref.g.Clone()
	if err := swapped.SwapEnds(m.U, m.V, m.X, m.Y); err != nil {
		panic(err)
	}
	if !subgraphs.Count(swapped).Equal(ref.census) {
		return m, rejectCensusChanged
	}
	ref.g = swapped
	ref.at[a^1], ref.at[b^1] = m.Y, m.V
	return m, rejectNone
}

// checkDepth3Moves runs objective-free depth-3 Step and depth3Ref from
// the same seed and requires every attempt to end the same way: the
// same rejection reason, or the same accepted move. The two graphs must
// then agree edge slot by edge slot.
func checkDepth3Moves(t *testing.T, name string, orig *graph.CSR, seed int64, attempts int) {
	t.Helper()
	r, err := NewRewirer(orig.Clone(), 3, newRng(seed*31))
	if err != nil {
		t.Fatalf("%s/d3: %v", name, err)
	}
	r.RecordMoves = true
	ref, refRng := newDepth3Ref(orig.Clone()), newRng(seed*31)
	for i := 0; i < attempts; i++ {
		before := r.Stats
		ok, err := r.Step()
		if err != nil {
			t.Fatalf("%s/d3: Step: %v", name, err)
		}
		mr, rejr := ref.step(refRng)
		got := rejectNone
		switch st := r.Stats.Rejected.sub(before.Rejected); {
		case ok:
			if m := r.AcceptedMoves()[len(r.AcceptedMoves())-1]; m != mr {
				t.Fatalf("%s/d3 seed=%d attempt %d: accepted %+v, reference %+v", name, seed, i, m, mr)
			}
		case st.SelfLoop == 1:
			got = rejectSelfLoop
		case st.DuplicateEdge == 1:
			got = rejectDuplicateEdge
		case st.CensusChanged == 1:
			got = rejectCensusChanged
		default:
			t.Fatalf("%s/d3 seed=%d attempt %d: rejected as %+v", name, seed, i, st)
		}
		if got != rejr {
			t.Fatalf("%s/d3 seed=%d attempt %d: reason %d, reference %d (move %+v)", name, seed, i, got, rejr, mr)
		}
	}
	if r.Stats.Accepted == 0 || r.Stats.Rejected.CensusChanged == 0 {
		t.Fatalf("%s/d3 seed=%d: stats %+v; want accepted moves and census rejections", name, seed, r.Stats)
	}
	for i := 0; i < orig.M(); i++ {
		if r.G.EdgeAt(i) != ref.g.EdgeAt(i) {
			t.Fatalf("%s/d3 seed=%d: EdgeAt(%d) = %v, reference %v", name, seed, i, r.G.EdgeAt(i), ref.g.EdgeAt(i))
		}
	}
}
