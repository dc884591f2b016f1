// Package service exposes the full dK pipeline of the paper — extract a
// dK-profile, generate dK-random replicas, compare topologies — as a
// long-running HTTP API, turning the batch CLIs into a topology-analysis
// service (see docs/API.md for the wire reference).
//
// The service is built around two pieces of shared state:
//
//   - A content-addressed profile cache (Cache): uploaded graphs are
//     interned under the SHA-256 of their canonical edge list, and their
//     extracted profiles and computed metric summaries live with the
//     entry. Repeated requests against the same topology — the dominant
//     pattern for ensemble sampling and robustness sweeps — skip the
//     Brandes/census recomputation entirely and can reference the graph
//     by hash instead of re-uploading it.
//
//   - A bounded asynchronous job engine (Engine): generation work runs
//     on a fixed runner pool fed by a bounded queue, polled via
//     GET /v1/jobs/{id} with bulk results streamed from
//     GET /v1/jobs/{id}/result. The runner pool shares the process-wide
//     worker budget of internal/parallel, so concurrent jobs cannot
//     oversubscribe the machine: inner parallel loops degrade to inline
//     execution once the global helper fleet is saturated.
//
// Endpoints (all under /v1): POST /extract, POST /generate, POST
// /compare, GET /jobs, GET /jobs/{id}, GET /jobs/{id}/result, GET
// /datasets, GET /datasets/{name}, GET /stats.
package service

import (
	"fmt"
	"log"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// Options configures a Server. The zero value selects production-sensible
// defaults; fields are independent.
type Options struct {
	// CacheEntries bounds the content-addressed graph cache (default 64).
	CacheEntries int
	// MaxBodyBytes caps request body size in bytes (default 32 MiB).
	MaxBodyBytes int64
	// MaxNodes and MaxEdges bound any single uploaded graph
	// (defaults 1e6 nodes, 4e6 edges).
	MaxNodes, MaxEdges int
	// MaxReplicas caps the replica count of one generate job (default 128).
	MaxReplicas int
	// JobRunners is the job-engine pool size (default: the process
	// worker budget, parallel.Workers()).
	JobRunners int
	// JobQueue bounds the number of jobs waiting to run (default 64).
	JobQueue int
	// JobRetain bounds retained terminal jobs (default 256).
	JobRetain int
	// MaxPipelineSteps bounds the step count of one POST /v1/pipelines
	// request (default 32).
	MaxPipelineSteps int
	// MaxPipelineReplicas bounds the summed ensemble size across all
	// generate steps of one pipeline (default 512) — a finished job's
	// graphs stay streamable until the job leaves retention, so this is
	// the per-job memory bound.
	MaxPipelineReplicas int
	// RatePerSec enables per-client token-bucket rate limiting: each
	// client (X-Client-Id header, else remote IP) accrues this many
	// request tokens per second, up to RateBurst. Exhausted clients get
	// 429 rate_limited with a Retry-After header. 0 (the default)
	// disables limiting. Health probes and /metrics are always exempt.
	RatePerSec float64
	// RateBurst is the token-bucket capacity (default: 2×RatePerSec,
	// minimum 1) — the size of the burst a well-behaved client may send
	// before the steady-state rate applies.
	RateBurst int
	// AccessLog receives one structured line per request (nil = no
	// access logging — the default, so embedded/test servers stay
	// quiet).
	AccessLog *log.Logger
	// DisableTracing turns off execution tracing entirely: no request
	// root spans, no job traces, no startup trace. The default (false)
	// traces job submissions and any request carrying ?trace=1; the
	// disabled path costs nothing (nil-span contract, internal/trace).
	DisableTracing bool
	// Store is the persistent artifact store backing the cache's disk
	// tier and the job journal (nil = memory-only, the historical
	// behavior). The caller owns it: close it after Close.
	Store *store.Store
}

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = 64
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	if o.MaxEdges == 0 {
		o.MaxEdges = 4_000_000
	}
	if o.MaxReplicas == 0 {
		o.MaxReplicas = 128
	}
	if o.JobRunners == 0 {
		o.JobRunners = parallel.Workers()
	}
	if o.JobQueue == 0 {
		o.JobQueue = 64
	}
	if o.JobRetain == 0 {
		o.JobRetain = 256
	}
	if o.MaxPipelineSteps == 0 {
		o.MaxPipelineSteps = 32
	}
	return o
}

// Server is the dK topology service: an http.Handler wiring the cache,
// the job engine, and the dataset registry to the /v1 endpoints.
type Server struct {
	opts      Options
	cache     *Cache
	jobs      *Engine
	store     *store.Store // nil = memory-only
	mux       *http.ServeMux
	routes    *routeStats
	phases    *phaseStats
	scenarios *phaseStats // netsim scenario timings, keyed by kind
	traces    *traceStore
	httpHist  *histogramVec // dk_http_request_seconds, by route
	phaseHist *histogramVec // dk_pipeline_phase_seconds, by op.phase
	scenHist  *histogramVec // dk_scenario_seconds, by kind
	limiter   *rateLimiter  // nil = no rate limiting
	started   time.Time
	draining  atomic.Bool

	dsMu    sync.Mutex
	dsMemo  map[string]*dsEntry
	dsOrder []string // insertion order, for memo eviction
}

// dsEntry is one memoized dataset synthesis with per-key single-flight:
// the map lock is held only to find or create the entry, while the
// (possibly slow) synthesis runs under the entry's once — so a slow
// skitter build does not block requests for other datasets.
type dsEntry struct {
	once sync.Once
	g    *graph.CSR
	err  error
}

// dsMemoMax bounds the dataset memo: (name, seed, n) keys are
// client-controlled, so without a bound the memo would be an unbounded
// memory leak. Oldest entries are evicted first.
const dsMemoMax = 32

// New builds a Server with the given options and starts its job engine.
// With a persistent store configured, the profile cache becomes
// write-through over the store's disk tier and the job journal of a
// previous process is replayed: jobs that never reached a terminal state
// are re-queued under their original ids before the server takes
// traffic. Call Close when done to stop the runner pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	var (
		journal     *store.Journal
		replayed    []store.JobState
		startupSpan *trace.Span // root of the startup trace (nil = untraced)
		traceDisk   *store.Store
	)
	// Only the journal's lock owner may replay and append: a second
	// server on the same data dir would re-run the owner's in-flight
	// jobs and mint colliding ids. Without the lock the job engine runs
	// memory-only while the (concurrency-safe, content-addressed)
	// artifact tier stays active. dkserved refuses to start in that
	// state; embedders get the degraded mode.
	if opts.Store != nil && opts.Store.Exclusive() {
		journal = opts.Store.Journal()
		// Trace persistence follows the journal's ownership rule: only
		// the lock owner writes jobs/<id>.trace.jsonl, since job ids are
		// only unique within the journal's sequence.
		traceDisk = opts.Store
		if !opts.DisableTracing {
			startupSpan = trace.New("startup", "startup").Root()
		}
		// Replay errors degrade to an empty journal: a damaged journal
		// must not stop the service from starting. Under a trace the
		// replay records a "store.journal_replay" span with its record
		// count — GET /v1/jobs/startup/trace answers "why was boot slow".
		replayed, _ = store.Ops{S: opts.Store, Span: startupSpan}.Replay()
		// Startup is the one moment the lock owner knows compaction is
		// safe; without this, a long-lived server's journal (2-3 records
		// per job) would grow without bound and every restart would fold
		// the entire history.
		_, _ = journal.Compact()
	}
	// Recovery must never convert a recoverable job into a permanent
	// failure just because the configured queue is smaller than the
	// journal backlog, so the queue is sized to hold every job being
	// re-queued.
	queueCap := opts.JobQueue
	if n := countNonTerminal(replayed); n > queueCap {
		queueCap = n
	}
	s := &Server{
		opts:      opts,
		cache:     NewTieredCache(opts.CacheEntries, opts.Store),
		jobs:      NewJournaledEngine(opts.JobRunners, queueCap, opts.JobRetain, journal, MaxJournaledSeq(replayed)),
		store:     opts.Store,
		mux:       http.NewServeMux(),
		routes:    newRouteStats(),
		phases:    newPhaseStats(),
		scenarios: newPhaseStats(),
		traces:    newTraceStore(opts.JobRetain, traceDisk),
		httpHist:  newHistogramVec(latencyBuckets),
		phaseHist: newHistogramVec(latencyBuckets),
		scenHist:  newHistogramVec(latencyBuckets),
		started:   time.Now().UTC(),
		dsMemo:    make(map[string]*dsEntry),
	}
	if opts.RatePerSec > 0 {
		burst := opts.RateBurst
		if burst == 0 {
			burst = int(math.Ceil(2 * opts.RatePerSec))
		}
		s.limiter = newRateLimiter(opts.RatePerSec, burst)
	}
	rec := startupSpan.Child("recover")
	s.recoverJobs(replayed)
	if startupSpan != nil {
		rec.SetAttr("requeued", fmt.Sprint(s.jobs.Stats().Recovered))
		rec.End()
		startupSpan.End()
		s.traces.save("startup", startupSpan.Trace())
	}
	s.route("POST /v1/extract", s.handleExtract)
	s.route("POST /v1/generate", s.handleGenerate)
	s.route("POST /v1/compare", s.handleCompare)
	s.route("POST /v1/pipelines", s.handlePipelineSubmit)
	s.route("GET /v1/graphs/{hash}", s.handleGraphGet)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobGet)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.route("GET /v1/datasets", s.handleDatasetList)
	s.route("GET /v1/datasets/{name}", s.handleDatasetGet)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /v1/healthz", s.handleHealthz)
	s.route("GET /v1/readyz", s.handleReadyz)
	// Prometheus exposition lives at the conventional scrape path, not
	// under /v1: it is an operational surface with its own format
	// contract, versioned by the exposition format rather than the API.
	s.route("GET /metrics", s.handleMetrics)
	return s
}

// recoverJobs re-queues journaled jobs that never reached a terminal
// state in the previous process, through the same job body submission
// uses. Each recovered job keeps its original id, so a client polling
// across the restart finds it again. Jobs whose spec no longer checks
// or resolves (e.g. the graph artifact was GC'd) are closed out —
// journaled failed AND registered in the engine as failed, so the poll
// answers with the reason rather than 404.
func (s *Server) recoverJobs(states []store.JobState) {
	for _, st := range states {
		if st.Terminal() {
			continue
		}
		req, err := s.recoverRequest(st.Kind, st.Spec)
		if err == nil {
			_, err = s.jobs.Resubmit(st.ID, st.Kind, pipeline.Class(req), st.Spec, s.jobBody(st.Kind, req, nil))
		}
		if err != nil {
			msg := "recovery: " + err.Error()
			s.jobs.note(store.JobRecord{ID: st.ID, Status: store.JobFailed, Error: msg})
			s.jobs.RegisterFailed(st.ID, st.Kind, st.Spec, msg)
		}
	}
}

// recoverRequest turns a journaled spec back into the pipeline its job
// runs, re-checking it as submission did. Journaled specs are
// normalized to hash references, so resolving them reads the disk tier
// without recomputation — and tells now, not mid-job, when an artifact
// is gone.
func (s *Server) recoverRequest(kind string, spec json.RawMessage) (dkapi.PipelineRequest, error) {
	switch kind {
	case "generate":
		var req GenerateRequest
		if err := json.Unmarshal(spec, &req); err != nil {
			return dkapi.PipelineRequest{}, fmt.Errorf("bad spec: %v", err)
		}
		// Submission journals the replica count explicitly, so a spec
		// without one was not written by a server.
		step := generateStep(req)
		if _, err := pipeline.GenerateRules(step, s.opts.MaxReplicas); err != nil || req.Replicas < 1 {
			return dkapi.PipelineRequest{}, fmt.Errorf("invalid spec (d=%d replicas=%d method=%q)",
				pipeline.Depth(step), req.Replicas, req.Method)
		}
		if _, err := s.resolveRef(req.Source); err != nil {
			return dkapi.PipelineRequest{}, fmt.Errorf("source: %v", err)
		}
		return generatePipeline(req), nil
	case "pipeline":
		var req dkapi.PipelineRequest
		if err := json.Unmarshal(spec, &req); err != nil {
			return req, fmt.Errorf("bad spec: %v", err)
		}
		if err := pipeline.Validate(req, s.pipelineLimits()); err != nil {
			return req, fmt.Errorf("invalid spec: %v", err)
		}
		if err := s.resolvePipelineRefs(&req); err != nil {
			return req, err
		}
		return req, nil
	default:
		return dkapi.PipelineRequest{}, fmt.Errorf("unknown job kind %q", kind)
	}
}

// Close stops the job engine. In-flight jobs finish; queued jobs fail.
func (s *Server) Close() {
	s.jobs.Close()
}

// CacheStats exposes cache instrumentation (also served on /v1/stats);
// tests use it to verify repeated extractions hit the cache.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// JobStats exposes job-engine instrumentation (also served on /v1/stats);
// tests use it to verify the concurrent-job high-water mark respects the
// runner budget.
func (s *Server) JobStats() EngineStats { return s.jobs.Stats() }

// StoreStats exposes artifact-store instrumentation (also served on
// /v1/stats). The boolean reports whether a store is configured.
func (s *Server) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// BuiltinDatasets lists the built-in dataset registry — the same table
// GET /v1/datasets serves, exported for local CLI use.
func BuiltinDatasets() []DatasetInfo {
	return append([]DatasetInfo(nil), builtinDatasets...)
}

// builtinDatasets is the registry behind GET /v1/datasets, backed by
// internal/datasets. DatasetInfo is wire vocabulary (pkg/dkapi).
var builtinDatasets = []DatasetInfo{
	{Name: "paw", Description: "the paper's §3 worked example: a triangle with one pendant node (4 nodes)"},
	{Name: "petersen", Description: "the Petersen graph (3-regular, girth 5) — a metric-validation fixture"},
	{Name: "hot", Description: "router-like HOT topology: hierarchical core/gateway/access/host graph, hubs at the periphery", Params: []string{"seed"}},
	{Name: "skitter", Description: "AS-like topology: power-law degrees, disassortative, strongly clustered", Params: []string{"seed", "n"}, Slow: true},
}

// CheckDataset validates a dataset name and its parameters without
// synthesizing anything. Errors are pre-classified: unknown names are
// 404, parameter-limit violations are 413.
func CheckDataset(name string, n int) error {
	switch name {
	case "paw", "petersen", "hot", "skitter":
	default:
		return &apiError{http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown dataset %q", name)}
	}
	if name == "skitter" && n > 10_000 {
		return &apiError{http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("skitter n=%d exceeds the service bound of 10000", n)}
	}
	return nil
}

// SynthesizeDataset builds a built-in dataset graph (no memoization) —
// the same registry, parameter bounds, and synthesis code the service's
// /v1/datasets endpoints use, exported so the local facade (pkg/dk)
// resolves dataset references identically to a remote server.
func SynthesizeDataset(name string, seed int64, n int) (*graph.CSR, error) {
	if err := CheckDataset(name, n); err != nil {
		return nil, err
	}
	switch name {
	case "paw":
		return datasets.Paw(), nil
	case "petersen":
		return datasets.Petersen(), nil
	case "hot":
		g, _, err := datasets.HOT(datasets.HOTConfig{Seed: seed})
		return g, err
	default:
		return datasets.Skitter(datasets.SkitterConfig{N: n, Seed: seed})
	}
}

// datasetGraph synthesizes (or returns the memoized copy of) a built-in
// dataset. n is only meaningful for skitter; seed for hot and skitter.
// Synthesis is single-flighted per (name, seed, n) and the memo is
// bounded (dsMemoMax, oldest-first eviction). Errors come back
// pre-classified: unknown names are 404, parameter-limit violations are
// 413, synthesis failures are 500.
func (s *Server) datasetGraph(name string, seed int64, n int) (*graph.CSR, error) {
	// Reject unknown names and bad parameters before touching the memo
	// so garbage requests cannot churn real entries out of it.
	if err := CheckDataset(name, n); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%d/%d", name, seed, n)
	s.dsMu.Lock()
	e, ok := s.dsMemo[key]
	if !ok {
		e = &dsEntry{}
		s.dsMemo[key] = e
		s.dsOrder = append(s.dsOrder, key)
		for len(s.dsMemo) > dsMemoMax {
			delete(s.dsMemo, s.dsOrder[0])
			s.dsOrder = s.dsOrder[1:]
		}
	}
	s.dsMu.Unlock()
	e.once.Do(func() {
		e.g, e.err = SynthesizeDataset(name, seed, n)
	})
	return e.g, e.err
}
