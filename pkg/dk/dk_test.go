package dk_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/parallel"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

func mustGraph(t *testing.T, edges string) *dk.Graph {
	t.Helper()
	g, err := dk.ParseGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestExtractCachedSemantics: within one session, the second extraction
// of the same topology is a cache hit; the profile bytes are identical.
func TestExtractCachedSemantics(t *testing.T) {
	ctx := context.Background()
	s := dk.NewSession()
	g := mustGraph(t, "0 1\n1 2\n2 0\n2 3\n")

	first, err := s.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first extraction claims cached")
	}
	second, err := s.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("shallower re-extraction did not hit the session cache")
	}
	if first.Graph != second.Graph {
		t.Fatalf("graph infos differ: %+v vs %+v", first.Graph, second.Graph)
	}
}

// TestSessionAddCarriedHash: a Session files a graph under the hash it
// carries. A replica re-added to a session randomizes to the same
// replicas as its topology re-parsed from the edge list, and a second
// extraction of it is a cache hit under Graph.Hash(). Node 0 of the
// source is adjacent to every other node, and 2K rewiring keeps it so,
// so the replica's canonical edge list names nodes 0, 1, 2, … first in
// that order and re-parsing keeps every node id.
func TestSessionAddCarriedHash(t *testing.T) {
	ctx := context.Background()
	const n = 40
	var edges strings.Builder
	for v := 1; v < n; v++ {
		fmt.Fprintf(&edges, "0 %d\n", v)
		if v+1 < n {
			fmt.Fprintf(&edges, "%d %d\n", v, v+1)
		}
		if w := 1 + (v*7)%(n-1); w > v+1 {
			fmt.Fprintf(&edges, "%d %d\n", v, w)
		}
	}
	src := mustGraph(t, edges.String())
	gen, err := dk.NewSession().Generate(ctx, src, dk.GenerateOptions{D: dkapi.Int(2), Replicas: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	replica := gen.Graphs[0]
	reparsed := mustGraph(t, replica.Edges())
	if reparsed.Hash() != replica.Hash() {
		t.Fatalf("re-parsed replica hashes to %s, carried hash %s", reparsed.Hash(), replica.Hash())
	}
	randomize := func(g *dk.Graph) string {
		out, err := dk.NewSession().Generate(ctx, g, dk.GenerateOptions{D: dkapi.Int(2), Method: "randomize", Replicas: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, rg := range out.Graphs {
			if err := rg.WriteEdgeList(&sb); err != nil {
				t.Fatal(err)
			}
		}
		return sb.String()
	}
	if randomize(replica) != randomize(reparsed) {
		t.Fatal("a re-added replica randomizes differently from its re-parsed edge list")
	}

	s := dk.NewSession()
	for i, wantCached := range []bool{false, true} {
		res, err := s.Extract(ctx, replica, dk.ExtractOptions{D: dkapi.Int(2)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != wantCached || res.Graph.Hash != replica.Hash() {
			t.Fatalf("extraction %d: cached=%v hash %s, want cached=%v hash %s",
				i+1, res.Cached, res.Graph.Hash, wantCached, replica.Hash())
		}
	}
}

// TestPipelineInlineEdgesCarriedHash: a pipeline source given as an
// inline edge list is interned under the hash ParseGraph gives it, so a
// later pipeline in the same session resolves it by that hash.
func TestPipelineInlineEdgesCarriedHash(t *testing.T) {
	ctx := context.Background()
	const edges = "10 20\n20 30\n30 10\n30 40\n"
	want := mustGraph(t, edges).Hash()
	s := dk.NewSession()
	out, err := s.Run(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "met", Op: dkapi.OpMetrics, Source: &dkapi.GraphRef{Edges: edges}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Result.Steps[0].Graph.Hash; got != want {
		t.Fatalf("inline edges resolved to %s, want %s", got, want)
	}
	if _, err := s.Run(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "met", Op: dkapi.OpMetrics, Source: &dkapi.GraphRef{Hash: want}},
	}}); err != nil {
		t.Fatalf("hash of the inline edges does not resolve in the session: %v", err)
	}
}

// TestGenerateWorkerInvariance: the ensemble is a pure function of
// (seed, replicas) at any worker count.
func TestGenerateWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	g, err := dk.DatasetGraph("hot", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	runAt := func(workers int) string {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		out, err := dk.Generate(ctx, g, dk.GenerateOptions{
			D: dkapi.Int(2), Replicas: 4, Seed: 11, Compare: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, rg := range out.Graphs {
			if err := rg.WriteEdgeList(&sb); err != nil {
				t.Fatal(err)
			}
		}
		res, _ := json.Marshal(out.Result)
		return string(res) + sb.String()
	}
	if runAt(1) != runAt(8) {
		t.Fatal("generate output depends on the worker count")
	}
}

// TestSimulateWorkerInvariance: scenario curves are a pure function of
// (specs, seed) at any worker count — the netsim determinism contract,
// checked on the serialized JSON so ordering and float formatting are
// pinned too.
func TestSimulateWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	g, err := dk.DatasetGraph("hot", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dk.Generate(ctx, g, dk.GenerateOptions{D: dkapi.Int(2), Replicas: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := dk.SimulateOptions{
		Scenarios: []dkapi.ScenarioSpec{
			{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 0.2, 0.4, 0.6}, Trials: 3},
			{Kind: dkapi.ScenarioEpidemic, Beta: 0.4, Rounds: 16, Trials: 3},
			{Kind: dkapi.ScenarioRouting, Pairs: 16, TTL: 64, Trials: 3},
		},
		Seed: 11,
	}
	runAt := func(workers int) string {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		out, err := dk.Simulate(ctx, g, gen.Graphs, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := runAt(1)
	for _, w := range []int{2, 4, 8} {
		if got := runAt(w); got != base {
			t.Fatalf("simulate output at %d workers differs from 1 worker:\n%s\nvs\n%s", w, got, base)
		}
	}
	if !strings.Contains(base, `"divergence"`) {
		t.Fatal("ensemble run missing divergence summary")
	}
}

// TestPipelineStepRefs: step outputs feed later inputs, including
// replica selection, and the result is deterministic.
func TestPipelineStepRefs(t *testing.T) {
	ctx := context.Background()
	req := dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "ext", Op: dkapi.OpExtract, Source: &dkapi.GraphRef{Dataset: "hot", Seed: 3}, D: dkapi.Int(2)},
		{ID: "rnd", Op: dkapi.OpRandomize, Source: &dkapi.GraphRef{Step: "ext"}, D: dkapi.Int(2), Replicas: 2, Seed: 4},
		{ID: "cen", Op: dkapi.OpCensus, Source: &dkapi.GraphRef{Step: "rnd", Replica: 1}},
		{ID: "met", Op: dkapi.OpMetrics, Source: &dkapi.GraphRef{Step: "rnd", Replica: 0}},
	}}
	out1, err := dk.RunPipeline(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1.Result.Steps) != 4 {
		t.Fatalf("got %d steps, want 4", len(out1.Result.Steps))
	}
	if out1.Result.Steps[2].Census == nil {
		t.Fatal("census step has no census")
	}
	if out1.Result.Steps[3].Summary == nil {
		t.Fatal("metrics step has no summary")
	}
	out2, err := dk.RunPipeline(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(out1.Result)
	b2, _ := json.Marshal(out2.Result)
	if string(b1) != string(b2) {
		t.Fatal("two runs of the same pipeline differ")
	}
}

// TestPipelineReplicasDontEvictSources: generated replicas are held as
// detached entries, so a big ensemble cannot churn a hash-referenced
// source graph out of the bounded session cache mid-pipeline (which
// would fail a pipeline locally that succeeds against a server).
func TestPipelineReplicasDontEvictSources(t *testing.T) {
	ctx := context.Background()
	s := dk.NewSessionWith(dk.SessionOptions{CacheEntries: 2})
	g := mustGraph(t, "0 1\n1 2\n2 0\n2 3\n3 4\n4 0\n")
	ref := s.Add(g)
	out, err := s.Run(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "gen", Op: dkapi.OpGenerate, Source: &ref, D: dkapi.Int(1), Replicas: 6, Seed: 2},
		{ID: "met", Op: dkapi.OpMetrics, Source: &ref},
	}})
	if err != nil {
		t.Fatalf("hash ref stopped resolving after replica fan-out: %v", err)
	}
	if out.Result.Steps[1].Graph.Hash != g.Hash() {
		t.Fatal("metrics step resolved a different graph")
	}
}

// TestPipelineValidationErrors: the facade rejects malformed pipelines
// without running anything.
func TestPipelineValidationErrors(t *testing.T) {
	ctx := context.Background()
	_, err := dk.RunPipeline(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "x", Op: "teleport", Source: &dkapi.GraphRef{Dataset: "paw"}},
	}})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("err = %v, want unknown op", err)
	}
}

// TestContextCancellation: a canceled context stops the pipeline
// between steps.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := dk.RunPipeline(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "m", Op: dkapi.OpMetrics, Source: &dkapi.GraphRef{Dataset: "paw"}},
	}})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
}

// TestGenerateFromProfile: profile-driven construction is deterministic
// and honors the requested degree sequence (matching is exact at d=1).
func TestGenerateFromProfile(t *testing.T) {
	ctx := context.Background()
	g, err := dk.DatasetGraph("hot", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := dk.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := dk.GenerateFromProfile(ext.Profile, dk.GenerateOptions{
		D: dkapi.Int(1), Method: "matching", Replicas: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(graphs))
	}
	for _, rg := range graphs {
		if rg.N() != g.N() || rg.M() != g.M() {
			t.Fatalf("matching replica %dx%d, want %dx%d (exact realization)",
				rg.N(), rg.M(), g.N(), g.M())
		}
	}
	if _, err := dk.GenerateFromProfile(ext.Profile, dk.GenerateOptions{Method: "randomize"}); err == nil {
		t.Fatal("randomize from a bare profile should be rejected")
	}
}

// TestGenerateStreamRewireProgress: the convergence callback fires for
// every randomizing replica with sane, monotone samples — and wiring it
// up never changes the generated graphs.
func TestGenerateStreamRewireProgress(t *testing.T) {
	ctx := context.Background()
	g, err := dk.DatasetGraph("hot", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts dk.GenerateOptions) map[int]string {
		out := map[int]string{}
		var mu sync.Mutex
		err := dk.NewSession().GenerateStream(ctx, g, opts, func(i int, rg *dk.Graph) error {
			var sb strings.Builder
			if err := rg.WriteEdgeList(&sb); err != nil {
				return err
			}
			mu.Lock()
			out[i] = sb.String()
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	var mu sync.Mutex
	samples := map[int][]dk.RewireProgress{}
	traced := run(dk.GenerateOptions{
		D: dkapi.Int(2), Replicas: 3, Seed: 5,
		OnRewireProgress: func(replica int, p dk.RewireProgress) {
			mu.Lock()
			samples[replica] = append(samples[replica], p)
			mu.Unlock()
		},
	})
	if len(samples) != 3 {
		t.Fatalf("progress from %d replicas, want 3", len(samples))
	}
	for replica, ps := range samples {
		prev := 0
		for _, p := range ps {
			if p.Attempts <= prev {
				t.Fatalf("replica %d: attempts not increasing: %v", replica, ps)
			}
			prev = p.Attempts
			if p.WindowAttempts <= 0 || p.AcceptanceRate < 0 || p.AcceptanceRate > 1 {
				t.Fatalf("replica %d: bad sample %+v", replica, p)
			}
			rejected := p.RejectedSelfLoop + p.RejectedDuplicateEdge + p.RejectedJDDMismatch +
				p.RejectedCensusChanged + p.RejectedObjective + p.RejectedDisconnected
			if p.WindowAccepted+rejected > p.WindowAttempts {
				t.Fatalf("replica %d: window counts exceed attempts: %+v", replica, p)
			}
		}
	}

	plain := run(dk.GenerateOptions{D: dkapi.Int(2), Replicas: 3, Seed: 5})
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("replica %d differs with the progress callback attached", i)
		}
	}
}
