package generate

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// proposeRef is Rewirer.propose with its checks in the order they ran
// before the JDD test moved ahead of the duplicate probe: self-loop →
// duplicate edge → JDD mismatch. TestProposeCheckOrderMatchesReference
// pins the production order against it.
func (r *Rewirer) proposeRef(rng intner) (Move, rejectReason) {
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
	if r.tracker != nil {
		if r.tracker.Has(u, y) || r.tracker.Has(x, v) {
			return Move{}, rejectDuplicateEdge
		}
	} else if g.HasEdge(u, y) || g.HasEdge(x, v) {
		return Move{}, rejectDuplicateEdge
	}
	if r.Depth >= 2 {
		if r.deg[v] != r.deg[y] && r.deg[u] != r.deg[x] {
			return Move{}, rejectJDDMismatch
		}
	}
	return Move{U: u, V: v, X: x, Y: y, Depth: r.Depth}, rejectNone
}

// sameOutcome reports whether the production reason got is one the
// reference reason want allows: the same reason, or a reference
// duplicate-edge rejection that the reordered checks count as a JDD
// mismatch.
func sameOutcome(got, want rejectReason) bool {
	return got == want || (want == rejectDuplicateEdge && got == rejectJDDMismatch)
}

// drawHook passes a rand.Source through, handing each value to onDraw
// before returning it. fillBatch draws its batch seed first, so the hook
// sees the graph the batch is evaluated against.
type drawHook struct {
	rand.Source
	onDraw func(int64)
}

func (s *drawHook) Int63() int64 {
	v := s.Source.Int63()
	s.onDraw(v)
	return v
}

// TestProposeCheckOrderMatchesReference checks that running the JDD
// test before the duplicate probe changes nothing but the reason a
// rejection counts under: on the differential suite's graph families,
// every proposal yields the same Move and the same accept/reject
// outcome as proposeRef, and a reason differs only as duplicate edge →
// JDD mismatch. Depths 1 and 2 run the sequential path, depth 3 the
// batched one at one and four workers.
func TestProposeCheckOrderMatchesReference(t *testing.T) {
	defer parallel.SetWorkers(0)
	const attempts = 20000
	shifted := 0
	for _, fam := range diffFamilies {
		for _, seed := range []int64{11, 42} {
			orig := fam.build(newRng(seed))
			for _, depth := range []int{1, 2} {
				shifted += checkSequentialOrder(t, fam.name, orig, depth, seed, attempts)
			}
			for _, workers := range []int{1, 4} {
				parallel.SetWorkers(workers)
				shifted += checkBatchedOrder(t, fam.name, orig, seed, attempts)
			}
		}
	}
	if shifted == 0 {
		t.Fatal("no proposal was both a duplicate and a JDD mismatch; the reorder went unexercised")
	}
}

// checkSequentialOrder compares propose with proposeRef proposal by
// proposal on two rewirers fed the same stream, then checks that Step
// reproduces the reference run's accepted moves, edge order and stats.
// It returns the number of reasons that moved to JDD mismatch. At depth
// 2 the rewirers carry a zero-score objective: objective-free depth 2
// draws from the end index and never calls propose.
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
		m, rej := got.propose(got.Rng)
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
		okGot, errGot := got.finish(m)
		okRef, errRef := ref.finish(mr)
		if errGot != nil || errRef != nil || okGot != okRef {
			t.Fatalf("%s/d%d seed=%d proposal %d: accepted %v (%v), reference %v (%v)",
				name, depth, seed, i, okGot, errGot, okRef, errRef)
		}
	}

	step := newR()
	for i := 0; i < attempts; i++ {
		if _, err := step.Step(); err != nil {
			t.Fatalf("%s/d%d: Step: %v", name, depth, err)
		}
	}
	if !slices.Equal(step.AcceptedMoves(), ref.AcceptedMoves()) {
		t.Fatalf("%s/d%d seed=%d: Step accepted a different move sequence", name, depth, seed)
	}
	for i := 0; i < ref.G.M(); i++ {
		if step.G.EdgeAt(i) != ref.G.EdgeAt(i) {
			t.Fatalf("%s/d%d seed=%d: EdgeAt(%d) = %v, reference %v", name, depth, seed, i, step.G.EdgeAt(i), ref.G.EdgeAt(i))
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

// checkBatchedOrder drives a depth-3 Rewirer through Step and, for every
// batch it fills, compares the evaluated candidates with a reference
// batch built by proposeRef from the same batch seed on the same graph.
// It returns the number of reasons that moved to JDD mismatch.
func checkBatchedOrder(t *testing.T, name string, orig *graph.CSR, seed int64, attempts int) int {
	t.Helper()
	src := &drawHook{Source: rand.NewSource(seed * 31)}
	r, err := NewRewirer(orig.Clone(), 3, rand.New(src))
	if err != nil {
		t.Fatalf("%s/d3: %v", name, err)
	}
	r.BatchSize = 16
	td := r.tracker.NewDelta()
	var ref []candidate
	src.onDraw = func(batchSeed int64) {
		ref = make([]candidate, r.BatchSize)
		for i := range ref {
			m, rej := r.proposeRef(&splitMix{s: uint64(parallel.SubSeed(batchSeed, i))})
			if rej == rejectNone {
				swapDelta(r.tracker, td, r.deg, m.U, m.V, m.X, m.Y)
				if !td.IsZero() {
					rej = rejectCensusChanged
				}
			}
			ref[i] = candidate{m: m, reject: rej}
		}
	}
	shifted := 0
	for i := 0; i < attempts; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatalf("%s/d3: Step: %v", name, err)
		}
		if ref == nil {
			continue
		}
		for j, c := range r.queue {
			if c.m != ref[j].m || !sameOutcome(c.reject, ref[j].reject) {
				t.Fatalf("%s/d3 seed=%d workers=%d attempt %d candidate %d: got %+v, reference %+v",
					name, seed, parallel.Workers(), i, j, c, ref[j])
			}
			if c.reject != ref[j].reject {
				shifted++
			}
		}
		ref = nil
	}
	return shifted
}
