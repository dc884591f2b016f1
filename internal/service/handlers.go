package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// runStep executes one pipeline step synchronously through the shared
// executor, under the request's trace span when one is active (?trace=1).
// Handlers for the standalone endpoints are thin wire adapters around
// this — the same code path POST /v1/pipelines runs asynchronously.
// Validation failures (bad depth, step references outside a pipeline, …)
// come back as 400s.
func (s *Server) runStep(step dkapi.PipelineStep, parent *trace.Span) (*dkapi.StepResult, error) {
	req := dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{step}}
	if err := pipeline.Validate(req, s.pipelineLimits()); err != nil {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest, err.Error()}
	}
	out, err := s.runPipeline(req, nil, parent)
	if err != nil {
		return nil, err
	}
	return &out.Result.Steps[0], nil
}

// finishTrace closes a sync request's root span and returns its
// records for embedding in the response body (?trace=1). The
// middleware's own End afterwards is an idempotent no-op.
func finishTrace(root *trace.Span) []dkapi.TraceRecord {
	if root == nil {
		return nil
	}
	root.End()
	return root.Trace().Records()
}

// handleExtract implements POST /v1/extract: parse the edge list in the
// request body (or synthesize ?dataset=name), intern it in the cache,
// and run an extract step at depth ?d (default 3). ?metrics=1 adds the
// scalar metric summary of the giant component; ?spectral=1 and
// ?sample=N tune it. The response's "cached" field reports whether the
// profile was served without recomputation.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	d, err := queryInt(r, "d", 3)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if d < 0 || d > 3 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "depth d=%d outside 0..3", d)
		return
	}
	seed, err := queryInt64(r, "seed", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sample, err := queryInt(r, "sample", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	n, err := queryInt(r, "n", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}

	// The dataset synthesis seed is its own parameter: ?seed drives
	// metric sampling/Lanczos, and conflating the two would make
	// "dataset X with synthesis seed S, sampled with seed T"
	// inexpressible — which is exactly what graph references spell as
	// {"dataset": X, "seed": S} elsewhere. Defaulting dseed to seed
	// preserves the historical single-seed behavior.
	dseed, err := queryInt64(r, "dseed", seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	var entry *Entry
	if name := r.URL.Query().Get("dataset"); name != "" {
		g, err := s.datasetGraph(name, dseed, n)
		if err != nil {
			writeAPIError(w, err)
			return
		}
		entry, _ = s.cache.Intern(g, nil)
	} else {
		body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		g, labels, err := graph.ReadEdgeListLimit(body, s.readLimits())
		if err != nil {
			writeGraphError(w, err)
			return
		}
		if g.N() == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"empty edge list; POST a 'u v' per line body or pass ?dataset=")
			return
		}
		entry, _ = s.cache.Intern(g.CSR(), labels)
	}

	root := trace.FromContext(r.Context())
	res, err := s.runStep(dkapi.PipelineStep{
		ID: "extract", Op: dkapi.OpExtract,
		Source:   &dkapi.GraphRef{Hash: string(entry.Hash())},
		D:        &d,
		Metrics:  queryBool(r, "metrics"),
		Spectral: queryBool(r, "spectral"),
		Sample:   sample,
		Seed:     seed,
	}, root)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExtractResponse{
		Graph: *res.Graph, Cached: res.Cached, Profile: res.Profile, Summary: res.Summary,
		Trace: finishTrace(root),
	})
}

// generateStep maps a validated GenerateRequest onto its pipeline step.
func generateStep(req GenerateRequest) dkapi.PipelineStep {
	return dkapi.PipelineStep{
		ID: "generate", Op: dkapi.OpGenerate,
		Source:   &req.Source,
		D:        req.D,
		Method:   req.Method,
		Replicas: req.Replicas,
		Seed:     req.Seed,
		Compare:  req.Compare,
	}
}

// handleGenerate implements POST /v1/generate: resolve the source graph,
// validate the request synchronously, and enqueue an asynchronous job
// that runs a one-step generate pipeline. Responds 202 with the job id,
// 429 when the queue is full.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"server is draining; submit to another instance")
		return
	}
	var req GenerateRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeGraphError(w, err)
		return
	}
	d := 2
	if req.D != nil {
		d = *req.D
	}
	if d < 0 || d > 3 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "depth d=%d outside 0..3", d)
		return
	}
	// Reject invalid (depth, method) combinations before paying for
	// resolution or extraction — a doomed d=3 request must not trigger
	// a full census of a large graph first.
	_, randomize, err := generate.ParseMethod(req.Method, d)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	methodName := req.Method
	if methodName == "" {
		methodName = "randomize"
	}
	replicas := req.Replicas
	if replicas == 0 {
		replicas = 1
	}
	if replicas < 1 || replicas > s.opts.MaxReplicas {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"replicas=%d outside 1..%d", replicas, s.opts.MaxReplicas)
		return
	}
	entry, err := s.resolveRef(req.Source)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// Extract the target profile up front when the job will need it
	// (construction from a distribution, or per-replica distances):
	// failures surface synchronously and the cache is warmed for the
	// job body, which re-fetches it as a pure cache hit. Pure
	// randomize-without-compare never reads the profile, so a potentially
	// expensive census must not run in the handler.
	if !randomize || req.Compare {
		if _, _, err := (svcHandle{e: entry, s: s}).Profile(d); err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, "extract: %v", err)
			return
		}
	}
	// The journaled spec references the source by content hash only: the
	// graph artifact is already written through to the disk tier, so the
	// spec stays small and resolvable after a restart even when the
	// original request carried inline edges.
	normalized := GenerateRequest{
		Source: GraphRef{Hash: string(entry.Hash())}, D: &d, Method: methodName,
		Replicas: replicas, Seed: req.Seed, Compare: req.Compare,
	}
	spec, _ := json.Marshal(normalized)
	jt := s.newJobTracer(r, "generate")
	job, err := s.jobs.SubmitTracked("generate", spec,
		jt.wrap(untracked(s.generateJobFunc(normalized, jt.span()))))
	jt.bind(job, err)
	if errors.Is(err, ErrQueueFull) {
		// Backpressure, not failure: carry Retry-After (dkclient honors
		// it) so callers back off instead of hammering the full queue.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeQueueFull,
			"job queue full (%d queued); retry later", s.opts.JobQueue)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, GenerateAccepted{
		JobID:     job.ID(),
		StatusURL: "/v1/jobs/" + job.ID(),
	})
}

// generateJobFunc builds the body of a generate job: a one-step
// pipeline run whose step result is reshaped into the historical
// GenerateResult summary, with the replica edge lists streamed in the
// PR2 "# replica i" format. It is shared by the HTTP submission path
// (which passes the job's trace span) and journal recovery (which
// passes nil — a recovered job's submission trace died with the old
// process). Everything else it needs round-trips through the journaled
// GenerateRequest spec.
func (s *Server) generateJobFunc(req GenerateRequest, parent *trace.Span) JobFunc {
	return func() (any, StreamFunc, error) {
		out, err := s.runPipeline(dkapi.PipelineRequest{
			Steps: []dkapi.PipelineStep{generateStep(req)},
		}, nil, parent)
		if err != nil {
			return nil, nil, err
		}
		step := out.Result.Steps[0]
		result := GenerateResult{
			Source:   *step.Graph,
			D:        step.D,
			Method:   step.Method,
			Seed:     step.Seed,
			Replicas: step.Replicas,
		}
		handles := out.Graphs[0].Handles
		stream := func(w io.Writer) error {
			for i, h := range handles {
				if _, err := fmt.Fprintf(w, "# replica %d\n", i); err != nil {
					return err
				}
				if err := graph.WriteEdgeList(w, h.Graph()); err != nil {
					return err
				}
			}
			return nil
		}
		return result, stream, nil
	}
}

// handleCompare implements POST /v1/compare: a synchronous one-step
// compare pipeline — D_d for every depth up to d, plus the scalar
// metric summaries of both giant components.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req CompareRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeGraphError(w, err)
		return
	}
	d := 3
	if req.D != nil {
		d = *req.D
	}
	if d < 0 || d > 3 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "depth d=%d outside 0..3", d)
		return
	}
	root := trace.FromContext(r.Context())
	res, err := s.runStep(dkapi.PipelineStep{
		ID: "compare", Op: dkapi.OpCompare,
		A: &req.A, B: &req.B, D: &d,
		Spectral: req.Spectral, Sample: req.Sample, Seed: req.Seed,
	}, root)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, CompareResponse{
		A: *res.A, B: *res.B,
		Distances: res.Distances,
		SummaryA:  *res.SummaryA, SummaryB: *res.SummaryB,
		Trace: finishTrace(root),
	})
}

// handleGraphGet implements GET /v1/graphs/{hash}: report whether a
// content hash resolves (memory or disk tier) and to what size. This is
// what lets clients skip re-uploading topologies the server already
// knows — the SDK probes it before falling back to an inline upload.
func (s *Server) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	e := s.cache.Get(Hash(hash))
	if e == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"hash %s not in cache (evicted or never uploaded)", hash)
		return
	}
	writeJSON(w, http.StatusOK, info(e))
}

// handleJobList implements GET /v1/jobs.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

// handleJobGet implements GET /v1/jobs/{id}: the polling endpoint. Done
// jobs carry their result summary and, when bulk output exists, a
// result_url for streaming it; running pipeline jobs carry per-step
// progress.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := s.jobs.Get(id)
	if job == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

// handleJobResult implements GET /v1/jobs/{id}/result: stream the bulk
// result (concatenated replica edge lists, text/plain) of a done job.
// Returns 409 while the job is still queued or running.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job := s.jobs.Get(id)
	if job == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job %q", id)
		return
	}
	view := job.View()
	switch view.Status {
	case JobQueued, JobRunning:
		writeError(w, http.StatusConflict, CodeConflict,
			"job %s is %s; poll %s until done", id, view.Status, "/v1/jobs/"+id)
		return
	case JobFailed:
		writeError(w, http.StatusConflict, CodeConflict, "job %s failed: %s", id, view.Error)
		return
	}
	stream := job.Stream()
	if stream == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "job %s has no bulk result", id)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// Mid-stream failures can only abort the connection; the status line
	// is already out.
	_ = stream(w)
}

// handleJobTrace implements GET /v1/jobs/{id}/trace: stream the
// execution trace of a finished job as JSONL (one record per line —
// see internal/trace for the vocabulary). Returns 409 while the job is
// still queued or running (the trace is written at completion), 404
// when no trace exists (tracing disabled, trace pruned, or unknown
// id). The startup trace, when present, is served under id "startup".
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job := s.jobs.Get(id); job != nil {
		if v := job.View(); v.Status == JobQueued || v.Status == JobRunning {
			writeError(w, http.StatusConflict, CodeConflict,
				"job %s is %s; its trace is written when it finishes", id, v.Status)
			return
		}
	}
	data, ok := s.traces.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			"no trace for job %q (tracing disabled, trace pruned, or unknown job)", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleDatasetList implements GET /v1/datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, builtinDatasets)
}

// handleDatasetGet implements GET /v1/datasets/{name}: synthesize the
// dataset (?seed=, ?n= where applicable) and return its edge list as
// text/plain, ready to pipe into POST /v1/extract.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	seed, err := queryInt64(r, "seed", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	n, err := queryInt(r, "n", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	g, err := s.datasetGraph(name, seed, n)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = graph.WriteEdgeList(w, g)
}

// handleStats implements GET /v1/stats: version, uptime, worker budget,
// cache counters, job-engine counters, per-route traffic, and — when a
// data directory is configured — artifact-store contents and traffic.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Version:       dkapi.Version,
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Workers:       parallel.Workers(),
		Cache:         s.cache.Stats(),
		Jobs:          s.jobs.Stats(),
		Routes:        s.routes.Snapshot(),
		Phases:        s.phases.Snapshot(),
		Scenarios:     s.scenarios.Snapshot(),
	}
	if s.limiter != nil {
		rl := s.limiter.Stats()
		resp.RateLimit = &rl
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
