package generate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/subgraphs"
)

// Graph families for the differential suite, chosen to stress distinct
// rewiring regimes: plain sparse connected graphs, degree-1-heavy trees
// (the paper's isomorphism-prone (1,k) swaps), a dense core with sparse
// periphery (swaps whose four edges overlap heavily), and a near-complete
// small graph (duplicate-edge rejections dominate).
var diffFamilies = []struct {
	name  string
	build func(rng *rand.Rand) *graph.CSR
}{
	{"sparse", func(rng *rand.Rand) *graph.CSR { return connectedRandom(rng, 40, 30) }},
	{"leafy-tree", func(rng *rand.Rand) *graph.CSR { return connectedRandom(rng, 50, 3) }},
	{"dense-core", func(rng *rand.Rand) *graph.CSR {
		// K10 core plus a 20-node sparse periphery hanging off it.
		g := graph.NewCSR(30)
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				if err := g.AddEdge(i, j); err != nil {
					panic(err)
				}
			}
		}
		for i := 10; i < 30; i++ {
			if err := g.AddEdge(i, rng.Intn(i)); err != nil {
				panic(err)
			}
		}
		return g
	}},
	{"near-complete", func(rng *rand.Rand) *graph.CSR {
		g := connectedRandom(rng, 12, 40)
		return g
	}},
}

// TestRewireDifferentialCensus is the pinning harness of the dense
// census-delta machinery: it runs the Rewirer with move recording, then
// replays the accepted-move log on a pristine clone maintaining the
// census two independent ways — the dense Tracker (SwapDelta + Drain)
// and the map-keyed reference delta — and recounts from scratch with
// subgraphs.Count every few moves, asserting exact equality throughout.
// Depth 3 additionally asserts the census never changes at all, and the
// replayed graph must equal the Rewirer's final graph edge for edge.
func TestRewireDifferentialCensus(t *testing.T) {
	defer parallel.SetWorkers(0)
	const (
		wantMoves   = 200
		maxAttempts = 60000
		recountEach = 20
	)
	acceptedByDepth := map[int]int{}
	for _, fam := range diffFamilies {
		for _, depth := range []int{1, 2, 3} {
			for _, seed := range []int64{11, 42} {
				for _, workers := range []int{1, 4} {
					parallel.SetWorkers(workers)
					orig := fam.build(newRng(seed))
					work := orig.Clone()
					r, err := NewRewirer(work, depth, newRng(seed*31))
					if err != nil {
						t.Fatalf("%s/d%d: %v", fam.name, depth, err)
					}
					r.RecordMoves = true
					for att := 0; att < maxAttempts && r.Stats.Accepted < wantMoves; att++ {
						if _, err := r.Step(); err != nil {
							t.Fatalf("%s/d%d: Step: %v", fam.name, depth, err)
						}
					}
					if got, want := r.Stats.Attempts, r.Stats.Accepted+r.Stats.Rejected.Total(); got != want {
						t.Fatalf("%s/d%d: attempts invariant broken: %d != %d", fam.name, depth, got, want)
					}
					acceptedByDepth[depth] += r.Stats.Accepted

					// Replay on a pristine clone with both census engines.
					replay := orig.Clone()
					deg := replay.DegreeSequence()
					tracker := subgraphs.NewTracker(replay, deg)
					td := tracker.NewDelta()
					trackerCensus := subgraphs.Count(replay.Static())
					mapCensus := refCountsOf(trackerCensus)
					baseline := trackerCensus.Clone()
					mapDelta := newRefCensusDelta()
					for i, m := range r.AcceptedMoves() {
						// Dense path: read-only delta, then commit.
						tracker.SwapDelta(td, m.U, m.V, m.X, m.Y)
						td.Drain(trackerCensus)
						tracker.ApplySwap(m.U, m.V, m.X, m.Y)
						// Map path interleaves deltas with the mutations.
						mapDelta.reset()
						mapDelta.edgeChange(replay, deg, m.U, m.V, -1)
						replay.RemoveEdge(m.U, m.V)
						mapDelta.edgeChange(replay, deg, m.X, m.Y, -1)
						replay.RemoveEdge(m.X, m.Y)
						mapDelta.edgeChange(replay, deg, m.U, m.Y, +1)
						mustAdd(replay, m.U, m.Y)
						mapDelta.edgeChange(replay, deg, m.X, m.V, +1)
						mustAdd(replay, m.X, m.V)
						mapDelta.applyTo(mapCensus)

						if !trackerCensus.Equal(mapCensus.census()) {
							t.Fatalf("%s/d%d seed=%d w=%d: tracker census != map census after move %d",
								fam.name, depth, seed, workers, i)
						}
						if depth == 3 && !trackerCensus.Equal(baseline) {
							t.Fatalf("%s/d%d seed=%d w=%d: depth-3 move %d changed the census",
								fam.name, depth, seed, workers, i)
						}
						if (i+1)%recountEach == 0 || i == r.Stats.Accepted-1 {
							if fresh := subgraphs.Count(replay.Static()); !trackerCensus.Equal(fresh) {
								t.Fatalf("%s/d%d seed=%d w=%d: incremental census != recount after move %d",
									fam.name, depth, seed, workers, i)
							}
						}
					}
					if !replay.Equal(work) {
						t.Fatalf("%s/d%d seed=%d w=%d: replayed graph differs from rewired graph",
							fam.name, depth, seed, workers)
					}
				}
			}
		}
	}
	for _, depth := range []int{1, 2, 3} {
		if acceptedByDepth[depth] == 0 {
			t.Fatalf("differential suite accepted zero moves at depth %d — vacuous", depth)
		}
	}
}

// checkedObjective runs a read-only objective and its retired
// interleaved reference side by side. The reference works on a mirror
// of the rewired graph: for every scored move it applies the move to the
// mirror through WillRemove/WillAdd, reads Delta, and reverts, so each
// proposal — accepted or rejected — is scored both ways.
type checkedObjective struct {
	t      *testing.T
	name   string
	obj    Objective
	ref    interleavedObjective
	mirror *graph.CSR
	scored int
}

func (c *checkedObjective) Init(g *graph.CSR) error {
	c.mirror = g.Clone()
	if err := c.ref.Init(c.mirror); err != nil {
		return err
	}
	return c.obj.Init(g)
}

// interleave applies m to the mirror with the reference's callbacks.
func (c *checkedObjective) interleave(m Move) {
	g := c.mirror
	c.ref.Begin()
	c.ref.WillRemove(g, m.U, m.V)
	g.RemoveEdge(m.U, m.V)
	if m.Depth == 0 {
		c.ref.WillAdd(g, m.X, m.Y)
		mustAdd(g, m.X, m.Y)
		return
	}
	c.ref.WillRemove(g, m.X, m.Y)
	g.RemoveEdge(m.X, m.Y)
	c.ref.WillAdd(g, m.U, m.Y)
	mustAdd(g, m.U, m.Y)
	c.ref.WillAdd(g, m.X, m.V)
	mustAdd(g, m.X, m.V)
}

func (c *checkedObjective) Score(m Move) float64 {
	got := c.obj.Score(m)
	c.interleave(m)
	want := c.ref.Delta()
	c.ref.Rollback()
	(&Rewirer{G: c.mirror}).revert(m)
	if got != want {
		c.t.Fatalf("%s: proposal %d %+v: Score = %v, interleaved Delta = %v", c.name, c.scored, m, got, want)
	}
	c.scored++
	return got
}

func (c *checkedObjective) Commit(m Move) {
	c.obj.Commit(m)
	c.interleave(m)
	c.ref.Commit()
}

// TestObjectiveScoreMatchesInterleaved pins every read-only objective to
// the retired interleaved protocol it replaced: on each differential
// graph family, at each rewiring depth the objective supports, every
// proposal that reaches the objective is scored both ways and must agree
// exactly. A random third of the proposals is accepted, so the two sides
// also agree after commits; at the end the rewired graph must equal the
// reference's mirror and the tracked distances must agree.
func TestObjectiveScoreMatchesInterleaved(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(2)
	type pair struct {
		obj Objective
		ref interleavedObjective
	}
	objectives := []struct {
		name     string
		minDepth int
		build    func(p *dk.Profile) pair
	}{
		{"degree-dist", 0, func(p *dk.Profile) pair {
			return pair{NewDegreeDistObjective(p.Degrees), newRefDegreeDist(p.Degrees)}
		}},
		{"likelihood", 0, func(*dk.Profile) pair { return pair{&LikelihoodObjective{}, &refLikelihood{}} }},
		{"jdd", 1, func(p *dk.Profile) pair { return pair{NewJDDObjective(p.Joint), newRefJDD(p.Joint)} }},
		{"census", 1, func(p *dk.Profile) pair { return pair{NewCensusObjective(p.Census), newRefCensus(p.Census)} }},
		{"s2", 1, func(*dk.Profile) pair { return pair{&S2Objective{}, &refS2{}} }},
		{"clustering", 1, func(*dk.Profile) pair { return pair{&ClusteringObjective{}, &refClustering{}} }},
	}
	scored := map[string]int{}
	for _, fam := range diffFamilies {
		for depth := 0; depth <= 3; depth++ {
			for _, o := range objectives {
				if depth < o.minDepth {
					continue
				}
				for _, seed := range []int64{3, 19} {
					g := fam.build(newRng(seed))
					target, err := dk.Extract(fam.build(newRng(seed+100)), 3)
					if err != nil {
						t.Fatal(err)
					}
					p := o.build(target)
					name := fmt.Sprintf("%s/%s/d%d/seed%d", fam.name, o.name, depth, seed)
					c := &checkedObjective{t: t, name: name, obj: p.obj, ref: p.ref}
					if err := c.Init(g); err != nil {
						if o.name == "clustering" {
							continue // no node of degree >= 2 to normalize by
						}
						t.Fatalf("%s: %v", name, err)
					}
					r, err := NewRewirer(g, depth, newRng(seed*7+int64(depth)))
					if err != nil {
						t.Fatal(err)
					}
					r.Obj = c
					r.Accept = func(rng *rand.Rand, _ float64) bool { return rng.Intn(3) == 0 }
					for att := 0; att < 3000; att++ {
						if _, err := r.Step(); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if !g.Equal(c.mirror) {
						t.Fatalf("%s: rewired graph differs from the reference mirror", name)
					}
					type current interface{ Current() float64 }
					if cur, ok := p.obj.(current); ok {
						if got, want := cur.Current(), p.ref.(current).Current(); got != want {
							t.Fatalf("%s: Current = %v, reference %v", name, got, want)
						}
					}
					scored[fmt.Sprintf("%s/d%d", o.name, depth)] += c.scored
				}
			}
		}
	}
	for _, o := range objectives {
		for depth := o.minDepth; depth <= 3; depth++ {
			if scored[fmt.Sprintf("%s/d%d", o.name, depth)] == 0 {
				t.Fatalf("%s at depth %d scored no proposals — vacuous", o.name, depth)
			}
		}
	}
}
