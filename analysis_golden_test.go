package repro_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datasets"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/subgraphs"
	"repro/pkg/dkapi"
)

// digest hashes a sequence of exact values: floats by their IEEE-754
// bits, integers as int64. Two analysis outputs digest alike only if
// every value, float bits included, matches.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) f(xs ...float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		d.h.Write(buf[:])
	}
}

func (d *digest) i(xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		d.h.Write(buf[:])
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// intMap feeds a map in ascending key order.
func (d *digest) intMap(m map[int]float64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		d.i(k)
		d.f(m[k])
	}
}

func (d *digest) curve(pts []dkapi.CurvePoint) {
	for _, p := range pts {
		d.f(p.X, p.Y)
	}
}

// TestAnalysisGolden pins the exact output of the §2 metrics, the
// subgraph and bridge passes, the §5 network simulations and the
// scenario runner on a fixed Skitter GCC, plus a 2K-randomized replica
// of it whose edge list is no longer in canonical order. The analysis
// layers read only sorted neighbor windows, so any change to the graph
// type they run on must leave every digest unchanged.
func TestAnalysisGolden(t *testing.T) {
	sk, err := datasets.Skitter(datasets.SkitterConfig{N: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gcc, _ := graph.GiantComponent(sk)
	rep, _, err := generate.Randomize(gcc, 2, generate.RandomizeOptions{Rng: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	s, r := gcc, rep
	graphs := [...]*graph.CSR{s, r}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	got := map[string]string{}
	add := func(name string, fill func(d *digest)) {
		d := newDigest()
		fill(d)
		got[name] = d.sum()
	}

	add("graph", func(d *digest) { d.i(s.N(), s.M(), r.N(), r.M()) })
	add("summarize", func(d *digest) {
		for i, g := range graphs {
			sum, err := metrics.Summarize(g, metrics.SummaryOptions{Spectral: true, Rng: rng(int64(20 + i))})
			if err != nil {
				t.Fatal(err)
			}
			d.i(sum.N, sum.M)
			d.f(sum.AvgDegree, sum.R, sum.CBar, sum.DBar, sum.SigmaD, sum.S, sum.S2, sum.Lambda1, sum.LambdaN)
		}
	})
	add("betweenness", func(d *digest) {
		for _, g := range graphs {
			d.f(metrics.Betweenness(g)...)
		}
	})
	add("edge_betweenness", func(d *digest) {
		for _, g := range graphs {
			eb := metrics.EdgeBetweenness(g)
			es := make([]graph.Edge, 0, len(eb))
			for e := range eb {
				es = append(es, e)
			}
			sort.Slice(es, func(a, b int) bool {
				if es[a].U != es[b].U {
					return es[a].U < es[b].U
				}
				return es[a].V < es[b].V
			})
			for _, e := range es {
				d.i(e.U, e.V)
				d.f(eb[e])
			}
		}
	})
	add("clustering_by_degree", func(d *digest) {
		for _, g := range graphs {
			d.intMap(metrics.ClusteringByDegree(g))
		}
	})
	add("degree_correlation_at_distance", func(d *digest) {
		for dist := 1; dist <= 4; dist++ {
			for _, g := range graphs {
				d.f(metrics.DegreeCorrelationAtDistance(g, dist))
			}
		}
	})
	add("bridges", func(d *digest) {
		for _, g := range graphs {
			bs := graph.Bridges(g)
			d.i(len(bs))
			for _, e := range bs {
				d.i(e.U, e.V)
			}
		}
	})
	add("size4", func(d *digest) {
		for _, g := range graphs {
			c := subgraphs.CountSize4(g)
			d.i(int(c.Path4), int(c.Claw), int(c.Cycle4), int(c.Paw), int(c.Diamond), int(c.K4))
		}
	})
	fracs := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	for _, targeted := range []bool{false, true} {
		add(fmt.Sprintf("robustness targeted=%v", targeted), func(d *digest) {
			for i, g := range graphs {
				pts, err := netsim.Robustness(g, fracs, targeted, rng(int64(30+i)))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pts {
					d.f(p.RemovedFrac, p.GCCFrac)
				}
			}
		})
	}
	add("worm", func(d *digest) {
		for i, g := range graphs {
			res, err := netsim.WormSpread(g, 0.3, 40, rng(int64(40+i)))
			if err != nil {
				t.Fatal(err)
			}
			d.f(res.Coverage...)
		}
	})
	add("routing", func(d *digest) {
		for i, g := range graphs {
			res, err := netsim.GreedyDegreeRouting(g, 200, 0, rng(int64(50+i)))
			if err != nil {
				t.Fatal(err)
			}
			d.f(res.SuccessRate, res.AvgStretch)
		}
	})
	specs := []dkapi.ScenarioSpec{
		{Kind: dkapi.ScenarioRobustness, Fracs: fracs, Trials: 3},
		{Kind: dkapi.ScenarioRobustness, Fracs: fracs, Targeted: true, Trials: 2},
		{Kind: dkapi.ScenarioEpidemic, Beta: 0.25, Rounds: 20, Trials: 3},
		{Kind: dkapi.ScenarioRouting, Pairs: 100, Trials: 3},
	}
	for i, sp := range specs {
		add(fmt.Sprintf("scenario %d %s", i, sp.Kind), func(d *digest) {
			res, err := scenario.Run(s, graphs[:], sp, int64(60+i))
			if err != nil {
				t.Fatal(err)
			}
			d.i(res.Trials)
			d.curve(res.Measured)
			for _, b := range res.Ensemble {
				d.f(b.X, b.Mean, b.Min, b.Max)
			}
			d.f(*res.Divergence)
		})
	}

	want := map[string]string{
		"graph":                          "7a9bbbeb402181ad",
		"summarize":                      "b4c0de956363e0b1",
		"betweenness":                    "a272c9c5ba154509",
		"edge_betweenness":               "e50e5d88f9a4b6b9",
		"clustering_by_degree":           "9ff7c91de6d0f21e",
		"degree_correlation_at_distance": "b1c20f6f967dfee6",
		"bridges":                        "35190973a8121b8f",
		"size4":                          "e4fae62c52eef976",
		"robustness targeted=false":      "dd41a8e8a4995572",
		"robustness targeted=true":       "20f8d9d6e861152c",
		"worm":                           "68453c3770d29f80",
		"routing":                        "07456967f73d3988",
		"scenario 0 robustness":          "cee9664aed4c15ce",
		"scenario 1 robustness":          "c4564c614a48d577",
		"scenario 2 epidemic":            "32c947f78f5967da",
		"scenario 3 routing":             "a7f249ae95131a89",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %s, want %s", name, got[name], w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no golden (got %s)", name, g)
		}
	}
}
