package generate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// The retired per-move path of scored rewiring, kept as the reference
// the end-index path must reproduce. propose drew each move from the
// graph's own EdgeAt order and probed duplicates with CSR.HasEdge; apply
// and revert edited the graph with RemoveEdge and AddEdge; decline left
// the EdgeAt order that apply followed by revert leaves, which is what
// every rejected move leaves in the edge list. stepRef is Step on that
// path, for every run but objective-free depths 2 and 3.

// propose draws one candidate move for the configured depth from rng and
// checks its structural constraints up to depth 2.
func (r *Rewirer) propose(rng *rand.Rand) (Move, rejectReason) {
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
	if u == x || u == y || v == x || v == y {
		return Move{}, rejectSelfLoop
	}
	if r.Depth >= 2 && r.deg[v] != r.deg[y] && r.deg[u] != r.deg[x] {
		return Move{}, rejectJDDMismatch
	}
	if g.HasEdge(u, y) || g.HasEdge(x, v) {
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

// decline leaves the edge list as a move the objective rejected left it.
func (r *Rewirer) decline(m Move) {
	r.apply(m)
	r.revert(m)
}

// finish runs the acceptance pipeline on a structurally valid move:
// objective score and policy, apply, connectivity veto, commit.
func (r *Rewirer) finish(m Move) (bool, error) {
	var delta float64
	if r.Obj != nil {
		delta = r.Obj.Score(m)
		if r.Accept != nil && !r.Accept(r.Rng, delta) {
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

// stepRef is Step on the per-move path.
func (r *Rewirer) stepRef() (bool, error) {
	r.Stats.Attempts++
	m, rej := r.propose(r.Rng)
	if rej == rejectNone && r.tracker != nil && !r.censusKept(m.U, m.V, m.X, m.Y) {
		rej = rejectCensusChanged
	}
	if rej != rejectNone {
		r.Stats.Rejected.count(rej)
		return false, nil
	}
	return r.finish(m)
}

// scoredCase is one configuration of scored rewiring: a preserved
// depth, an objective built from a target profile (nil for an
// objective-free run), and the acceptance rule. Metropolis runs keep
// temperature temp, as TargetRewire does; maximize runs accept
// increases, as Explore does. Every objective scores 0 on a depth-3 move, which keeps
// the census, so the depth-3 case accepts a random third of its moves.
type scoredCase struct {
	name      string
	depth     int
	obj       func(p *dk.Profile) Objective
	temp      float64
	maximize  bool
	coin      bool
	connected bool
}

var scoredCases = []scoredCase{
	{name: "free/d0", depth: 0},
	{name: "free/d1", depth: 1},
	{name: "free/d1/connected", depth: 1, connected: true},
	{name: "target1K", depth: 0, obj: func(p *dk.Profile) Objective { return NewDegreeDistObjective(p.Degrees) }},
	{name: "target1K/metropolis", depth: 0, temp: 2, connected: true,
		obj: func(p *dk.Profile) Objective { return NewDegreeDistObjective(p.Degrees) }},
	{name: "target2K", depth: 1, obj: func(p *dk.Profile) Objective { return NewJDDObjective(p.Joint) }},
	{name: "target2K/metropolis", depth: 1, temp: 4,
		obj: func(p *dk.Profile) Objective { return NewJDDObjective(p.Joint) }},
	{name: "target2K/connected", depth: 1, connected: true,
		obj: func(p *dk.Profile) Objective { return NewJDDObjective(p.Joint) }},
	{name: "target3K", depth: 2, obj: func(p *dk.Profile) Objective { return NewCensusObjective(p.Census) }},
	{name: "target3K/metropolis", depth: 2, temp: 4, connected: true,
		obj: func(p *dk.Profile) Objective { return NewCensusObjective(p.Census) }},
	{name: "explore/likelihood", depth: 1, maximize: true, obj: func(*dk.Profile) Objective { return &LikelihoodObjective{} }},
	{name: "explore/likelihood/d0", depth: 0, obj: func(*dk.Profile) Objective { return &LikelihoodObjective{} }},
	{name: "explore/s2", depth: 2, maximize: true, obj: func(*dk.Profile) Objective { return &S2Objective{} }},
	{name: "explore/clustering", depth: 2, maximize: true, obj: func(*dk.Profile) Objective { return &ClusteringObjective{} }},
	{name: "s2/d3/coin", depth: 3, coin: true, obj: func(*dk.Profile) Objective { return &S2Objective{} }},
}

// newScoredSide returns a Rewirer on a clone of g configured as c, or
// nil if c's objective cannot score g (clustering with no node of
// degree ≥ 2).
func newScoredSide(tb testing.TB, g *graph.CSR, p *dk.Profile, c scoredCase, seed int64) *Rewirer {
	tb.Helper()
	r, err := NewRewirer(g.Clone(), c.depth, newRng(seed))
	if err != nil {
		tb.Fatal(err)
	}
	r.RecordMoves = true
	r.PreserveConnectivity = c.connected
	if c.obj != nil {
		obj := c.obj(p)
		if err := obj.Init(r.G); err != nil {
			return nil
		}
		r.Obj = obj
		r.Accept = PolicyMetropolis(c.temp)
		if c.maximize {
			r.Accept = PolicyMaximize
		}
		if c.coin {
			r.Accept = func(rng *rand.Rand, _ float64) bool { return rng.Intn(3) == 0 }
		}
	}
	return r
}

// checkScoredMatchesReference runs c on g from seed twice in lockstep,
// through Step and through stepRef, for the given number of attempts.
// Every attempt must end the same way with the same stats. A third side
// makes the same attempts in one Run. At the end
// every side must agree with the reference on the stats, the accepted
// moves, the committed objective change, the edge list in EdgeAt order
// once written back, every neighbor window, and the next value of the
// random source. It returns the Step side's stats.
func checkScoredMatchesReference(tb testing.TB, g *graph.CSR, p *dk.Profile, c scoredCase, seed int64, attempts int) RewireStats {
	tb.Helper()
	got, ref := newScoredSide(tb, g, p, c, seed), newScoredSide(tb, g, p, c, seed)
	if got == nil {
		return RewireStats{}
	}
	for a := 0; a < attempts; a++ {
		okGot, err := got.Step()
		if err != nil {
			tb.Fatal(err)
		}
		okRef, err := ref.stepRef()
		if err != nil {
			tb.Fatal(err)
		}
		if okGot != okRef || got.Stats != ref.Stats {
			tb.Fatalf("%s seed=%d attempt %d: accepted %v stats %+v, reference %v stats %+v",
				c.name, seed, a, okGot, got.Stats, okRef, ref.Stats)
		}
	}
	got.sync()
	want := ref.Rng.Int63()
	run := newScoredSide(tb, g, p, c, seed)
	if _, err := run.Run(0, attempts, 0); err != nil {
		tb.Fatal(err)
	}
	for k, side := range []*Rewirer{got, run} {
		name := fmt.Sprintf("%s seed=%d %s", c.name, seed, []string{"Step", "Run"}[k])
		if side.Stats != ref.Stats || !reflect.DeepEqual(side.AcceptedMoves(), ref.AcceptedMoves()) {
			tb.Fatalf("%s: stats %+v, reference %+v, or the accepted moves differ", name, side.Stats, ref.Stats)
		}
		if side.objSum != ref.objSum {
			tb.Fatalf("%s: objective change %v, reference %v", name, side.objSum, ref.objSum)
		}
		if !reflect.DeepEqual(side.G.Edges(), ref.G.Edges()) {
			tb.Fatalf("%s: EdgeAt order differs from the reference", name)
		}
		for u := 0; u < g.N(); u++ {
			if !reflect.DeepEqual(side.G.Neighbors(u), ref.G.Neighbors(u)) {
				tb.Fatalf("%s: neighbors of %d are %v, reference %v", name, u, side.G.Neighbors(u), ref.G.Neighbors(u))
			}
		}
		if next := side.Rng.Int63(); next != want {
			tb.Fatalf("%s: random source then gives %d, reference %d", name, next, want)
		}
	}
	return got.Stats
}

// TestScoredMatchesReference pins scored rewiring on the end index
// against the retired per-move path: on every differential graph family,
// for objective-free depths 0 and 1 and for the targeting and
// exploration objectives at depths 0–3, greedy and fixed-temperature
// Metropolis, with and without PreserveConnectivity, both paths must
// take the same moves and leave the same graph, EdgeAt order, stats and
// random-source state, whether driven by Step or by Run. Each
// configuration must accept moves and, where it has an objective or
// preserves connectivity, reject some on those grounds.
func TestScoredMatchesReference(t *testing.T) {
	for _, c := range scoredCases {
		var total RewireStats
		for _, fam := range diffFamilies {
			for _, seed := range []int64{5, 29} {
				g := fam.build(newRng(seed))
				p, err := dk.Extract(fam.build(newRng(seed+100)), 3)
				if err != nil {
					t.Fatal(err)
				}
				st := checkScoredMatchesReference(t, g, p, c, seed*13, 4000)
				total.Accepted += st.Accepted
				total.Rejected.Objective += st.Rejected.Objective
				total.Rejected.Disconnected += st.Rejected.Disconnected
			}
		}
		if total.Accepted == 0 || (c.obj != nil && total.Rejected.Objective == 0) ||
			(c.connected && total.Rejected.Disconnected == 0) {
			t.Fatalf("%s: %+v; the comparison is vacuous", c.name, total)
		}
	}
}

// FuzzScoredMatchesReference is TestScoredMatchesReference on fuzzed
// graphs, seeds, configurations and run lengths.
func FuzzScoredMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(500), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 4, 5, 5, 6, 6, 4, 1, 5})
	f.Add(int64(7), uint8(6), uint16(3000), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(int64(-3), uint8(9), uint16(2000), []byte{1, 2, 2, 3, 3, 4, 4, 5, 5, 1, 1, 3, 2, 4, 6, 7, 7, 8})
	f.Add(int64(11), uint8(14), uint16(800), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 12, 13, 0, 13, 2, 9})
	f.Add(int64(5), uint8(4), uint16(1500), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 0, 3, 1, 4})

	f.Fuzz(func(t *testing.T, seed int64, which uint8, attempts uint16, data []byte) {
		c := scoredCases[int(which)%len(scoredCases)]
		n := 4 + len(data)%13
		g := graph.NewCSR(n)
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				g.AddEdge(u, v) //nolint:errcheck // a repeated pair is skipped, as the input allows
			}
		}
		if g.M() < 2 {
			return
		}
		p, err := dk.Extract(connectedRandom(newRng(seed), n, g.M()-n+1), 3)
		if err != nil {
			t.Fatal(fmt.Errorf("target profile: %w", err))
		}
		checkScoredMatchesReference(t, g, p, c, seed, int(attempts%4096))
	})
}
