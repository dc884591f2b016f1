package dk

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	dkprof "repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/pkg/dkapi"
)

// Session is a local execution context: an in-process content-addressed
// cache of graphs and their extracted profiles/summaries — the same
// cache type a dkserved instance runs — plus the pipeline executor over
// it. Repeated operations against the same topology inside one session
// skip recomputation exactly like repeated requests against one server.
// A Session is safe for concurrent use.
type Session struct {
	cache  *service.Cache
	limits pipeline.Limits
}

// SessionOptions tunes a Session. The zero value matches a default
// dkserved instance (64 cache entries, 128 max replicas, 32 max steps).
type SessionOptions struct {
	// CacheEntries bounds the content-addressed cache (default 64).
	CacheEntries int
	// MaxReplicas bounds one generate step's ensemble (default 128).
	MaxReplicas int
	// MaxPipelineSteps bounds one pipeline's step count (default 32).
	MaxPipelineSteps int
	// MaxPipelineReplicas bounds the summed ensemble size across all
	// generate steps of one pipeline (default 512).
	MaxPipelineReplicas int
}

// NewSession returns a Session with default options.
func NewSession() *Session { return NewSessionWith(SessionOptions{}) }

// NewSessionWith returns a Session with the given options.
func NewSessionWith(opts SessionOptions) *Session {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 64
	}
	return &Session{
		cache: service.NewCache(opts.CacheEntries),
		limits: pipeline.Limits{
			MaxSteps:         opts.MaxPipelineSteps,
			MaxReplicas:      opts.MaxReplicas,
			MaxTotalReplicas: opts.MaxPipelineReplicas,
		},
	}
}

// Add interns a graph into the session and returns the hash reference
// later pipeline steps (or other calls on this session) can use for it.
// It files the graph under the hash g carries, computed when g was
// parsed, synthesized or generated, instead of hashing the edge list
// again.
func (s *Session) Add(g *Graph) dkapi.GraphRef {
	s.cache.InternHashed(g.g, g.labels, service.Hash(g.hash))
	return dkapi.GraphRef{Hash: g.hash}
}

// backend adapts the session cache to the pipeline executor — the
// in-process twin of the service's backend.
type backend struct{ s *Session }

func (b backend) Resolve(ref dkapi.GraphRef) (pipeline.Handle, error) {
	switch {
	case ref.Step != "":
		return nil, fmt.Errorf("step references are only valid inside pipeline steps")
	case ref.File != "":
		return nil, fmt.Errorf("file references are resolved client-side; inline the edge list first")
	case ref.Hash != "":
		e := b.s.cache.Get(service.Hash(ref.Hash))
		if e == nil {
			return nil, fmt.Errorf("hash %s not in this session (Session.Add the graph first)", ref.Hash)
		}
		return handle{e}, nil
	case ref.Edges != "":
		g, err := ParseGraph(ref.Edges)
		if err != nil {
			return nil, err
		}
		if g.g.N() == 0 {
			return nil, service.ErrEmptyEdges
		}
		e, _ := b.s.cache.InternHashed(g.g, g.labels, service.Hash(g.hash))
		return handle{e}, nil
	case ref.Dataset != "":
		raw, err := datasetGraph(ref.Dataset, ref.Seed, ref.N)
		if err != nil {
			return nil, err
		}
		e, _ := b.s.cache.Intern(raw, nil)
		return handle{e}, nil
	default:
		return nil, fmt.Errorf("graph reference must set exactly one of hash, edges, dataset")
	}
}

func (b backend) Intern(g *graph.CSR) pipeline.Handle {
	// Detached, exactly like the server backend: registering a replica
	// ensemble in the bounded session LRU could evict the source graphs
	// later steps still reference by hash — a pipeline would then fail
	// locally while succeeding remotely.
	return handle{service.NewDetachedEntry(g)}
}

// handle is a cache entry viewed through the executor interface.
type handle struct{ e *service.Entry }

func (h handle) Graph() *graph.CSR { return h.e.Graph() }

func (h handle) Info() dkapi.GraphInfo {
	n, m := h.e.Size()
	return dkapi.GraphInfo{Hash: string(h.e.Hash()), N: n, M: m}
}

func (h handle) Profile(d int) (*dkprof.Profile, bool, error) { return h.e.Profile(d) }

func (h handle) Summary(spectral bool, sample int, seed int64) (metrics.Summary, bool, error) {
	return h.e.Summary(spectral, sample, seed)
}

// graphOf rebuilds a facade Graph from an executor handle.
func graphOf(h pipeline.Handle) *Graph {
	info := h.Info()
	return &Graph{g: h.Graph(), hash: info.Hash}
}

// StepGraphs pairs a generate/randomize step id with its replica
// graphs, in step order.
type StepGraphs struct {
	StepID string
	Graphs []*Graph
}

// PipelineOutput bundles the deterministic wire result with the
// generated graphs.
type PipelineOutput struct {
	Result *dkapi.PipelineResult
	Graphs []StepGraphs
}

// WriteFiles writes every generated replica to dir as
// "<step>.<index>.txt" edge lists — the same bytes a remote run
// downloads from the job's bulk result. It creates dir if needed.
func (p *PipelineOutput) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, sg := range p.Graphs {
		for i, g := range sg.Graphs {
			path := filepath.Join(dir, fmt.Sprintf("%s.%d.txt", sg.StepID, i))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := g.WriteEdgeList(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run validates and executes a declarative pipeline on this session.
// ctx cancels between steps. External graph references resolve against
// the session (hashes added via Add, inline edges, datasets); step
// references resolve against the run's own outputs.
func (s *Session) Run(ctx context.Context, req dkapi.PipelineRequest) (*PipelineOutput, error) {
	if err := pipeline.Validate(req, s.limits); err != nil {
		return nil, err
	}
	out, err := pipeline.Run(ctx, backend{s}, req, nil)
	if err != nil {
		return nil, err
	}
	po := &PipelineOutput{Result: out.Result}
	for _, sg := range out.Graphs {
		gs := make([]*Graph, len(sg.Handles))
		for i, h := range sg.Handles {
			gs[i] = graphOf(h)
		}
		po.Graphs = append(po.Graphs, StepGraphs{StepID: sg.StepID, Graphs: gs})
	}
	return po, nil
}

// runStep validates and executes a single step.
func (s *Session) runStep(ctx context.Context, step dkapi.PipelineStep) (*dkapi.StepResult, *PipelineOutput, error) {
	out, err := s.Run(ctx, dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{step}})
	if err != nil {
		return nil, nil, err
	}
	return &out.Result.Steps[0], out, nil
}

// Extract computes the dK-profile of g (with optional metrics). The
// response's Cached field reports whether this session had already
// extracted the profile.
func (s *Session) Extract(ctx context.Context, g *Graph, opts ExtractOptions) (*dkapi.ExtractResponse, error) {
	ref := s.Add(g)
	res, _, err := s.runStep(ctx, dkapi.PipelineStep{
		ID: "extract", Op: dkapi.OpExtract,
		Source:   &ref,
		D:        opts.D,
		Metrics:  opts.Metrics,
		Spectral: opts.Spectral,
		Sample:   opts.Sample,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &dkapi.ExtractResponse{
		Graph: *res.Graph, Cached: res.Cached, Profile: res.Profile, Summary: res.Summary,
	}, nil
}

// Generate builds a dK-random ensemble from g — the local twin of
// POST /v1/generate, sharing its executor, defaults, and validation.
// The rewiring callbacks are not supported here: the executor reports
// convergence as trace events, not per-replica calls; use
// GenerateStream.
func (s *Session) Generate(ctx context.Context, g *Graph, opts GenerateOptions) (*GenerateOutput, error) {
	if opts.OnRewireStats != nil || opts.OnRewireProgress != nil {
		return nil, fmt.Errorf("Generate does not support OnRewireStats or OnRewireProgress; use GenerateStream")
	}
	ref := s.Add(g)
	res, out, err := s.runStep(ctx, dkapi.PipelineStep{
		ID: "generate", Op: dkapi.OpGenerate,
		Source:   &ref,
		D:        opts.D,
		Method:   opts.Method,
		Replicas: opts.Replicas,
		Seed:     opts.Seed,
		Compare:  opts.Compare,
	})
	if err != nil {
		return nil, err
	}
	return &GenerateOutput{
		Result: dkapi.GenerateResult{
			Source: *res.Graph, D: res.D, Method: res.Method,
			Seed: res.Seed, Replicas: res.Replicas,
		},
		Graphs: out.Graphs[0].Graphs,
	}, nil
}

// Simulate runs scenario simulations over g and its replica ensemble —
// the local twin of a netsim pipeline step, sharing its executor,
// validation, and determinism contract. The ensemble may be empty
// (measured-only curves, no band).
func (s *Session) Simulate(ctx context.Context, g *Graph, ensemble []*Graph, opts SimulateOptions) (*SimulateOutput, error) {
	ref := s.Add(g)
	refs := make([]dkapi.GraphRef, len(ensemble))
	for i, e := range ensemble {
		refs[i] = s.Add(e)
	}
	res, _, err := s.runStep(ctx, dkapi.PipelineStep{
		ID: "netsim", Op: dkapi.OpNetsim,
		Source:    &ref,
		Ensemble:  refs,
		Scenarios: opts.Scenarios,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &SimulateOutput{
		Graph: *res.Graph, Seed: res.Seed,
		EnsembleSize: res.EnsembleSize, Scenarios: res.Scenarios,
	}, nil
}

// Compare reports D_d for every depth up to opts.D plus both metric
// summaries — the local twin of POST /v1/compare.
func (s *Session) Compare(ctx context.Context, a, b *Graph, opts CompareOptions) (*dkapi.CompareResponse, error) {
	ra, rb := s.Add(a), s.Add(b)
	res, _, err := s.runStep(ctx, dkapi.PipelineStep{
		ID: "compare", Op: dkapi.OpCompare,
		A: &ra, B: &rb,
		D:        opts.D,
		Spectral: opts.Spectral,
		Sample:   opts.Sample,
		Seed:     opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &dkapi.CompareResponse{
		A: *res.A, B: *res.B,
		Distances: res.Distances,
		SummaryA:  *res.SummaryA, SummaryB: *res.SummaryB,
	}, nil
}
