package scenario

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/pkg/dkapi"
)

// testGraph builds a connected random graph (a random tree plus extra
// edges) so every scenario kind has meaningful work.
func testGraph(t testing.TB, n int, seed int64) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewCSR(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, rng.Intn(i)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			_ = g.AddEdge(a, b) // duplicates are fine to skip
		}
	}
	return g
}

func allSpecs() []dkapi.ScenarioSpec {
	return []dkapi.ScenarioSpec{
		{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 0.1, 0.3}, Targeted: true},
		{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 0.2}, Trials: 3},
		{Kind: dkapi.ScenarioEpidemic, Beta: 0.4, Rounds: 16, Trials: 2},
		{Kind: dkapi.ScenarioRouting, Pairs: 40, Trials: 2},
	}
}

func TestValidateSpecs(t *testing.T) {
	if err := ValidateSpecs(allSpecs()); err != nil {
		t.Fatalf("valid specs rejected: %v", err)
	}
	bad := []struct {
		name  string
		specs []dkapi.ScenarioSpec
	}{
		{"empty", nil},
		{"unknown kind", []dkapi.ScenarioSpec{{Kind: "quantum"}}},
		{"missing kind", []dkapi.ScenarioSpec{{}}},
		{"robustness without fracs", []dkapi.ScenarioSpec{{Kind: "robustness"}}},
		{"frac above 1", []dkapi.ScenarioSpec{{Kind: "robustness", Fracs: []float64{1.5}}}},
		{"frac below 0", []dkapi.ScenarioSpec{{Kind: "robustness", Fracs: []float64{-0.1}}}},
		{"frac NaN", []dkapi.ScenarioSpec{{Kind: "robustness", Fracs: []float64{math.NaN()}}}},
		{"robustness with beta", []dkapi.ScenarioSpec{{Kind: "robustness", Fracs: []float64{0.1}, Beta: 0.5}}},
		{"epidemic beta zero", []dkapi.ScenarioSpec{{Kind: "epidemic"}}},
		{"epidemic beta above 1", []dkapi.ScenarioSpec{{Kind: "epidemic", Beta: 1.5}}},
		{"epidemic with fracs", []dkapi.ScenarioSpec{{Kind: "epidemic", Beta: 0.5, Fracs: []float64{0.1}}}},
		{"epidemic rounds negative", []dkapi.ScenarioSpec{{Kind: "epidemic", Beta: 0.5, Rounds: -1}}},
		{"epidemic rounds above cap", []dkapi.ScenarioSpec{{Kind: "epidemic", Beta: 0.5, Rounds: MaxRounds + 1}}},
		{"routing with targeted", []dkapi.ScenarioSpec{{Kind: "routing", Targeted: true}}},
		{"routing pairs negative", []dkapi.ScenarioSpec{{Kind: "routing", Pairs: -1}}},
		{"routing ttl negative", []dkapi.ScenarioSpec{{Kind: "routing", TTL: -1}}},
		{"trials negative", []dkapi.ScenarioSpec{{Kind: "routing", Trials: -1}}},
		{"trials above cap", []dkapi.ScenarioSpec{{Kind: "routing", Trials: MaxTrials + 1}}},
		{"too many scenarios", make([]dkapi.ScenarioSpec, MaxScenarios+1)},
	}
	for _, tc := range bad {
		if err := ValidateSpecs(tc.specs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetWorkers(0)
	measured := testGraph(t, 60, 1)
	ensemble := []*graph.CSR{testGraph(t, 60, 2), testGraph(t, 60, 3), testGraph(t, 60, 4)}
	var want []byte
	for _, w := range []int{1, 2, 4, 8} {
		parallel.SetWorkers(w)
		var all []dkapi.ScenarioCurves
		for si, sp := range allSpecs() {
			sc, err := Run(measured, ensemble, sp, parallel.SubSeed(7, si))
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			all = append(all, sc)
		}
		got, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d: curves differ from workers=1:\n%s\nvs\n%s", w, got, want)
		}
	}
}

func TestRunIdenticalEnsembleHasZeroDivergence(t *testing.T) {
	// A deterministic scenario (targeted robustness) over an ensemble of
	// copies of the measured graph must band exactly on the measured
	// curve with zero divergence.
	g := testGraph(t, 40, 5)
	sp := dkapi.ScenarioSpec{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 0.25, 0.5}, Targeted: true}
	res, err := Run(g, []*graph.CSR{g, g, g}, sp, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.Divergence == nil || *res.Divergence != 0 {
		t.Errorf("divergence = %v, want 0", res.Divergence)
	}
	for i, b := range res.Ensemble {
		m := res.Measured[i]
		if b.X != m.X || b.Mean != m.Y || b.Min != m.Y || b.Max != m.Y {
			t.Errorf("band[%d] = %+v, want collapsed on measured %+v", i, b, m)
		}
	}
}

func TestRunMeasuredOnlyOmitsBand(t *testing.T) {
	g := testGraph(t, 30, 6)
	sp := dkapi.ScenarioSpec{Kind: dkapi.ScenarioRouting}
	res, err := Run(g, nil, sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ensemble != nil || res.Divergence != nil {
		t.Errorf("measured-only run has ensemble band: %+v", res)
	}
	if len(res.Measured) != 2 {
		t.Errorf("routing curve has %d points, want 2", len(res.Measured))
	}
}

func TestRunEpidemicFixedGrid(t *testing.T) {
	// Epidemic curves share a fixed grid of rounds+1 points — graphs
	// that saturate early hold their final coverage — and coverage is
	// monotone in [0, 1].
	measured := testGraph(t, 50, 7)
	ensemble := []*graph.CSR{testGraph(t, 10, 8)} // saturates much sooner
	sp := dkapi.ScenarioSpec{Kind: dkapi.ScenarioEpidemic, Beta: 0.9, Rounds: 20, Trials: 2}
	res, err := Run(measured, ensemble, sp, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 21 || len(res.Ensemble) != 21 {
		t.Fatalf("grid = %d/%d points, want 21", len(res.Measured), len(res.Ensemble))
	}
	for i := range res.Measured {
		y := res.Measured[i].Y
		if math.IsNaN(y) || y < 0 || y > 1 {
			t.Errorf("coverage[%d] = %v out of range", i, y)
		}
		if i > 0 && y < res.Measured[i-1].Y {
			t.Errorf("coverage not monotone at %d", i)
		}
	}
	if last := res.Ensemble[20]; last.Max != 1 {
		t.Errorf("small replica should saturate: %+v", last)
	}
}

func TestRunDegenerateGraphs(t *testing.T) {
	// Single-node measured graph and zero-edge replicas produce finite,
	// well-defined curves for every kind.
	single := graph.NewCSR(1)
	zeroEdge := graph.NewCSR(5)
	for _, sp := range []dkapi.ScenarioSpec{
		{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 1}, Targeted: true},
		{Kind: dkapi.ScenarioEpidemic, Beta: 0.5, Rounds: 4},
		{Kind: dkapi.ScenarioRouting, Pairs: 8},
	} {
		res, err := Run(single, []*graph.CSR{zeroEdge}, sp, 17)
		if err != nil {
			t.Fatalf("%s: %v", sp.Kind, err)
		}
		for _, p := range res.Measured {
			if math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				t.Errorf("%s: measured point %+v not finite", sp.Kind, p)
			}
		}
		for _, b := range res.Ensemble {
			if math.IsNaN(b.Mean) || math.IsNaN(b.Min) || math.IsNaN(b.Max) {
				t.Errorf("%s: band point %+v not finite", sp.Kind, b)
			}
		}
	}
}
