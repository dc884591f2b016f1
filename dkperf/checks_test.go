package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

// randomizeStep is a workload whose one step is checked for D_d = 0.
var randomizeStep = workload{steps: []step{{op: opGenerate, d: 2, method: "randomize", replicas: 1, compare: true}}}

// replicaOutcome generates one 2K-randomized replica of a small skitter
// graph and returns the source with the replica's outcome.
func replicaOutcome(t *testing.T) (*dk.Graph, *dk.Graph, outcome) {
	t.Helper()
	ctx := context.Background()
	src, err := dk.DatasetGraph("skitter", 1, 300)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dk.Generate(ctx, src, dk.GenerateOptions{D: dkapi.Int(2), Replicas: 1, Seed: 7, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := gen.Graphs[0]
	return src, rep, outcome{hashes: [][]string{{rep.Hash()}}, distances: [][]float64{{*gen.Result.Replicas[0].Distance}}}
}

// swapOneEdge returns g with its first edge (u, v) replaced by (u, w)
// for the first w not adjacent to u.
func swapOneEdge(t *testing.T, g *dk.Graph) *dk.Graph {
	t.Helper()
	var edges [][2]string
	adj := map[[2]string]bool{}
	for _, l := range strings.Split(g.Edges(), "\n") {
		if f := strings.Fields(l); len(f) == 2 && !strings.HasPrefix(l, "#") {
			edges = append(edges, [2]string{f[0], f[1]})
			adj[[2]string{f[0], f[1]}], adj[[2]string{f[1], f[0]}] = true, true
		}
	}
	u := edges[0][0]
	for w := 0; w < g.N(); w++ {
		ws := fmt.Sprint(w)
		if ws == u || adj[[2]string{u, ws}] {
			continue
		}
		edges[0][1] = ws
		var sb strings.Builder
		for _, e := range edges {
			fmt.Fprintf(&sb, "%s %s\n", e[0], e[1])
		}
		out, err := dk.ParseGraph(sb.String())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Fatal("no non-neighbor to rewire to")
	return nil
}

func TestUnchangedReplicaPassesChecks(t *testing.T) {
	_, _, o := replicaOutcome(t)
	var tl tally
	checkRandomizeExact(&tl, randomizeStep, 0, o)
	checkSame(&tl, "replica vs itself", []outcome{o}, []outcome{o})
	if tl.failed != 0 {
		t.Fatalf("unchanged replica failed %d checks", tl.failed)
	}
}

func TestSwappedEdgeFailsChecks(t *testing.T) {
	src, rep, want := replicaOutcome(t)
	if same, err := dk.ParseGraph(rep.Edges()); err != nil || same.Hash() != rep.Hash() {
		t.Fatalf("re-parsing the replica changed it (err %v)", err)
	}
	bad := swapOneEdge(t, rep)
	cmp, err := dk.Compare(context.Background(), src, bad, dk.CompareOptions{D: dkapi.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	got := outcome{hashes: [][]string{{bad.Hash()}}, distances: [][]float64{{cmp.Distances[2].Value}}}

	var exact tally
	checkRandomizeExact(&exact, randomizeStep, 0, got)
	if exact.failed != 1 {
		t.Errorf("D_2 check: %d failures for a replica at D_2 = %v, want 1", exact.failed, cmp.Distances[2].Value)
	}
	var same tally
	checkSame(&same, "swapped vs original", []outcome{want}, []outcome{got})
	if same.failed != 2 {
		t.Errorf("hash and residual checks: %d failures, want 2", same.failed)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// names in step with the code that reports them.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		what  string
		json  []struct{ Name, Unit string }
		names []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.names) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.json), len(c.names))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.names[i].name || m.Unit != c.names[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.what, i, m.Name, m.Unit, c.names[i].name, c.names[i].unit)
			}
		}
	}
}
