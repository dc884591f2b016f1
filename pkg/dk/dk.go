// Package dk is the blessed Go entry point to the dK-series toolkit:
// extraction of dK-distributions, generation of dK-random graph
// ensembles, topology comparison, and declarative multi-step pipelines
// — the full workflow of "Systematic topology analysis and generation
// using degree correlations" behind a small typed API.
//
//	g, _ := dk.ReadGraphFile("as-graph.txt")
//	ext, _ := dk.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(2), Metrics: true})
//	gen, _ := dk.Generate(ctx, g, dk.GenerateOptions{D: dkapi.Int(2), Replicas: 10, Seed: 42})
//	cmp, _ := dk.Compare(ctx, g, gen.Graphs[0], dk.CompareOptions{})
//
// Results are the wire types of pkg/dkapi — the same structures a
// dkserved instance returns over HTTP — and the computation runs the
// same executor (internal/pipeline) the service runs, over an
// in-process Session instead of a server-side cache. A program written
// against this facade and one talking to a remote server through
// pkg/dkclient therefore produce byte-identical JSON for the same
// request, which the CLI tools exploit to make `-server` a pure
// transport switch.
//
// Everything is deterministic: given the same inputs and seeds, results
// are identical at any worker count (see internal/parallel).
package dk

import (
	"context"
	"io"
	"os"
	"strings"

	"repro/internal/graph"
	"repro/internal/service"
	"repro/pkg/dkapi"
)

// Graph is a parsed topology with its content address. Graphs are
// immutable once constructed; every generation entry point works on
// copies.
type Graph struct {
	g      *graph.CSR
	labels []int
	hash   string
}

// wrap canonicalizes and addresses a raw graph. Canonical edge order
// makes index-addressed edge draws — the randomizing rewiring loop — a
// pure function of (edge set, seed), exactly like the service cache.
func wrap(g *graph.CSR, labels []int) *Graph {
	if !g.EdgesCanonicallyOrdered() {
		g = g.CanonicalClone()
	}
	return &Graph{g: g, labels: labels, hash: graph.ContentHash(g, labels)}
}

// ReadGraph parses a whitespace-separated edge list ("u v" per line,
// # comments allowed).
func ReadGraph(r io.Reader) (*Graph, error) {
	g, labels, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return wrap(g, labels), nil
}

// ReadGraphFile reads an edge-list file; "-" means stdin.
func ReadGraphFile(path string) (*Graph, error) {
	if path == "-" {
		return ReadGraph(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraph(f)
}

// ParseGraph parses an inline edge list.
func ParseGraph(edges string) (*Graph, error) {
	return ReadGraph(strings.NewReader(edges))
}

// DatasetGraph synthesizes a built-in dataset (paw, petersen, hot,
// skitter); seed and n apply where the dataset is parameterized.
func DatasetGraph(name string, seed int64, n int) (*Graph, error) {
	g, err := datasetGraph(name, seed, n)
	if err != nil {
		return nil, err
	}
	return wrap(g, nil), nil
}

// N returns the node count.
func (g *Graph) N() int { return g.g.N() }

// M returns the edge count.
func (g *Graph) M() int { return g.g.M() }

// Hash returns the graph's content address ("sha256:<hex>" of the
// canonical edge list) — the same hash a dkserved instance computes for
// the same topology, which is what lets the SDK skip re-uploads.
func (g *Graph) Hash() string { return g.hash }

// Info returns the wire descriptor of the graph.
func (g *Graph) Info() dkapi.GraphInfo {
	return dkapi.GraphInfo{Hash: g.hash, N: g.g.N(), M: g.g.M()}
}

// Edges renders the graph as a canonical edge-list string — the inline
// form of a dkapi.GraphRef and the exact bytes the service would stream
// for this topology.
func (g *Graph) Edges() string {
	var sb strings.Builder
	_ = graph.WriteEdgeList(&sb, g.g)
	return sb.String()
}

// WriteEdgeList writes the graph as a sorted "u v" edge list.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	return graph.WriteEdgeList(w, g.g)
}

// WriteDOT renders the graph as Graphviz DOT; nodes with degree >=
// hubThreshold are drawn filled (0 disables highlighting).
func (g *Graph) WriteDOT(w io.Writer, name string, hubThreshold int) error {
	return graph.WriteDOT(w, g.g, name, hubThreshold)
}

// ExtractOptions configures Extract. The zero value extracts the full
// d=3 profile without metrics.
type ExtractOptions struct {
	// D is the extraction depth 0..3 (nil = 3); use dkapi.Int.
	D *int
	// Metrics adds the scalar metric summary of the giant component.
	Metrics bool
	// Spectral adds Laplacian spectrum bounds to the summary.
	Spectral bool
	// Sample bounds BFS sources for distance metrics (0 = exact).
	Sample int
	// Seed drives sampling and Lanczos (0 = 1, the endpoint default).
	Seed int64
}

// GenerateOptions configures Generate. The zero value produces one
// d=2 dK-randomized replica.
type GenerateOptions struct {
	// D is the dK depth 0..3 (nil = 2); use dkapi.Int.
	D *int
	// Method is randomize (default), stochastic, pseudograph, matching,
	// or targeting.
	Method string
	// Replicas is the ensemble size (default 1).
	Replicas int
	// Seed drives all randomness; replica i derives an independent
	// stream.
	Seed int64
	// Compare adds each replica's D_d distance to the source profile.
	Compare bool
	// OnRewireStats, when set, receives each replica's rewiring
	// statistics — acceptance counts plus the rejection-reason breakdown
	// that makes a collapsed acceptance rate diagnosable. Only the
	// randomize method produces stats; other methods never call it.
	// Only GenerateStream takes it (Generate returns an error when it
	// is set). Replicas run concurrently there: the callback may be
	// invoked from multiple goroutines at once and in any replica
	// order.
	OnRewireStats func(replica int, st RewireStats)
	// OnRewireProgress, when set, receives periodic convergence samples
	// while a replica rewires — roughly one per sweep (M attempts) plus
	// a final sample when the run ends. Observational only: setting it
	// never changes the generated graphs. Same method and concurrency
	// caveats as OnRewireStats.
	OnRewireProgress func(replica int, p RewireProgress)
}

// RewireProgress mirrors internal/generate.RewireProgress on the public
// surface: one convergence sample of a rewiring run. Attempts/Accepted
// are cumulative; the Window fields and rejection counts cover only the
// interval since the previous sample.
type RewireProgress struct {
	Sweep          int     // 1-based sample index
	Attempts       int     // cumulative proposals examined
	Accepted       int     // cumulative moves accepted
	WindowAttempts int     // proposals examined since the previous sample
	WindowAccepted int     // moves accepted since the previous sample
	AcceptanceRate float64 // WindowAccepted / WindowAttempts
	// Window rejection deltas by reason, counted as in RewireStats.
	RejectedSelfLoop      int
	RejectedDuplicateEdge int
	RejectedJDDMismatch   int
	RejectedCensusChanged int
	RejectedObjective     int
	RejectedDisconnected  int
	// Objective is the objective's cumulative committed change since
	// the run began; meaningful only when HasObjective.
	Objective    float64
	HasObjective bool
}

// RewireStats mirrors internal/generate.RewireStats on the public
// surface: what a dK-randomizing rewiring run did, with rejected
// proposals broken down by reason. Attempts is always Accepted plus the
// sum of the rejection counts.
type RewireStats struct {
	Attempts int // candidate proposals examined
	Accepted int // moves applied and kept
	Reverted int // moves declined by the objective or rolled back by connectivity
	// Rejection reasons; structural ones never touch the graph. A
	// rejected proposal counts once, under the first check it fails, in
	// the order self-loop → JDD mismatch → duplicate edge → census
	// change → objective → disconnected, so a proposal that is both a
	// duplicate and a JDD mismatch counts as RejectedJDDMismatch.
	// Depth-2 randomizing draws only JDD-preserving swaps and never
	// counts a JDD mismatch.
	RejectedSelfLoop      int
	RejectedDuplicateEdge int
	RejectedJDDMismatch   int
	RejectedCensusChanged int
	RejectedObjective     int
	RejectedDisconnected  int
}

// CompareOptions configures Compare. The zero value compares up to
// d=3 with exact, non-spectral summaries.
type CompareOptions struct {
	// D is the maximum depth 0..3 (nil = 3); use dkapi.Int.
	D *int
	// Spectral adds Laplacian spectrum bounds to both summaries.
	Spectral bool
	// Sample bounds BFS sources for distance metrics (0 = exact).
	Sample int
	// Seed drives Lanczos and sampled metrics (0 = 1).
	Seed int64
}

// GenerateOutput is a generated ensemble: the wire result summary plus
// the graphs themselves.
type GenerateOutput struct {
	Result dkapi.GenerateResult
	Graphs []*Graph
}

// SimulateOptions configures Simulate: which scenarios to run over the
// measured graph and its replica ensemble. See dkapi.ScenarioSpec for
// the per-kind knobs.
type SimulateOptions struct {
	// Scenarios lists the simulations to run (at least one).
	Scenarios []dkapi.ScenarioSpec
	// Seed drives all scenario randomness (0 = 1, the analysis-step
	// default); each (scenario, graph, trial) derives an independent
	// stream, so curves are identical at any worker count.
	Seed int64
}

// SimulateOutput is the result of a netsim run: the measured graph's
// descriptor plus the per-scenario measured-vs-ensemble curves.
type SimulateOutput struct {
	Graph        dkapi.GraphInfo        `json:"graph"`
	Seed         int64                  `json:"seed"`
	EnsembleSize int                    `json:"ensemble_size"`
	Scenarios    []dkapi.ScenarioCurves `json:"scenarios"`
}

// Extract computes the dK-profile of g (with optional metrics) in a
// fresh Session. ctx cancels between pipeline steps.
func Extract(ctx context.Context, g *Graph, opts ExtractOptions) (*dkapi.ExtractResponse, error) {
	return NewSession().Extract(ctx, g, opts)
}

// Generate builds a dK-random ensemble from g in a fresh Session.
func Generate(ctx context.Context, g *Graph, opts GenerateOptions) (*GenerateOutput, error) {
	return NewSession().Generate(ctx, g, opts)
}

// Compare reports D_d distances and metric summaries for two graphs in
// a fresh Session.
func Compare(ctx context.Context, a, b *Graph, opts CompareOptions) (*dkapi.CompareResponse, error) {
	return NewSession().Compare(ctx, a, b, opts)
}

// Simulate runs scenario simulations — percolation robustness, SI worm
// spread, degree-greedy routing — over g and its dK-random ensemble in
// a fresh Session, reducing them into measured-vs-ensemble comparison
// curves (the paper's behavioral-equivalence evidence).
func Simulate(ctx context.Context, g *Graph, ensemble []*Graph, opts SimulateOptions) (*SimulateOutput, error) {
	return NewSession().Simulate(ctx, g, ensemble, opts)
}

// RunPipeline executes a declarative pipeline in a fresh Session. Graph
// references may use edges/dataset forms; hash references resolve only
// if the session has seen the topology (use Session.Add first).
func RunPipeline(ctx context.Context, req dkapi.PipelineRequest) (*PipelineOutput, error) {
	return NewSession().Run(ctx, req)
}

// datasetGraph synthesizes a built-in dataset with the same names,
// bounds, and error classification as the service's dataset registry.
func datasetGraph(name string, seed int64, n int) (*graph.CSR, error) {
	return service.SynthesizeDataset(name, seed, n)
}
