package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// pipelineLimits are the request bounds handed to pipeline.Validate.
func (s *Server) pipelineLimits() pipeline.Limits {
	return pipeline.Limits{
		MaxSteps:         s.opts.MaxPipelineSteps,
		MaxReplicas:      s.opts.MaxReplicas,
		MaxTotalReplicas: s.opts.MaxPipelineReplicas,
	}
}

// resolvePipelineRefs resolves every external graph reference of the
// request synchronously — resolution failures (unknown hash, oversized
// inline edge list, bad dataset) surface as request errors, not job
// failures — and rewrites each to its content hash. Normalization keeps
// the journaled spec small and restart-resolvable (the graphs are
// already written through to the disk tier) and means the job body's
// own resolution is a pure cache hit. Step references pass through
// untouched: they resolve against the run's own outputs.
func (s *Server) resolvePipelineRefs(req *dkapi.PipelineRequest) error {
	normalize := func(ref *dkapi.GraphRef) error {
		if ref == nil || ref.Step != "" {
			return nil
		}
		e, err := s.resolveRef(*ref)
		if err != nil {
			return err
		}
		*ref = dkapi.GraphRef{Hash: string(e.Hash())}
		return nil
	}
	for i := range req.Steps {
		st := &req.Steps[i]
		if err := normalize(st.Source); err != nil {
			return fmt.Errorf("step %q: source: %w", st.ID, err)
		}
		if err := normalize(st.A); err != nil {
			return fmt.Errorf("step %q: a: %w", st.ID, err)
		}
		if err := normalize(st.B); err != nil {
			return fmt.Errorf("step %q: b: %w", st.ID, err)
		}
		for j := range st.Ensemble {
			if err := normalize(&st.Ensemble[j]); err != nil {
				return fmt.Errorf("step %q: ensemble[%d]: %w", st.ID, j, err)
			}
		}
	}
	return nil
}

// handlePipelineSubmit implements POST /v1/pipelines: validate the step
// DAG, resolve and normalize its external graph references, and enqueue
// the whole pipeline as one asynchronous job on the engine — one
// request for what used to take N extract/generate/compare round
// trips. Responds 202 with the job id; per-step progress appears in
// the job view while it runs.
func (s *Server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	var req dkapi.PipelineRequest
	if !s.decodeSubmission(w, r, &req) {
		return
	}
	if err := pipeline.Validate(req, s.pipelineLimits()); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if err := s.resolvePipelineRefs(&req); err != nil {
		writeAPIError(w, err)
		return
	}
	s.submitJob(w, r, "pipeline", req, req)
}

// decodeSubmission is the front of both job-submission routes: it
// refuses new jobs while the server drains, then decodes the request
// body into v. It reports false when it has written an error response.
func (s *Server) decodeSubmission(w http.ResponseWriter, r *http.Request, v any) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			"server is draining; submit to another instance")
		return false
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeGraphError(w, err)
		return false
	}
	return true
}

// submitJob enqueues req as an asynchronous job of the given kind
// ("generate" or "pipeline") under the request's trace, journaling spec
// as the job's recoverable request, and answers 202 with the job id —
// or 429 with Retry-After when the queue is full. Pipelines without
// generate steps are interactive-class (pipeline.Class): someone is
// waiting on a profile read, and it must not sit behind a queue of
// ensemble sweeps.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, kind string, spec any, req dkapi.PipelineRequest) {
	raw, _ := json.Marshal(spec)
	jt := s.newJobTracer(r, kind)
	job, err := s.jobs.Submit(kind, pipeline.Class(req), raw, jt.wrap(s.jobBody(kind, req, jt.span())))
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
	writeJSON(w, http.StatusAccepted, dkapi.JobAccepted{
		JobID:     job.ID(),
		StatusURL: "/v1/jobs/" + job.ID(),
	})
}

// jobBody builds the body of a job of the given kind: one run of the
// shared executor over req. A pipeline job publishes per-step status as
// progress and streams every generated ensemble, each replica prefixed
// by "# step <id> replica <i>". A generate job is a one-step pipeline
// whose result is reshaped into GenerateResult and whose replicas are
// prefixed by "# replica <i>"; its job view carries no progress, as it
// never has. Shared by submission (which passes the
// job's trace span) and journal recovery (which passes nil — a
// recovered job's submission trace died with the old process).
func (s *Server) jobBody(kind string, req dkapi.PipelineRequest, parent *trace.Span) TrackedJobFunc {
	return func(setProgress func(any)) (any, StreamFunc, error) {
		var progress pipeline.Progress
		if kind == "pipeline" {
			progress = func(steps []dkapi.StepStatus) { setProgress(steps) }
		}
		out, err := s.runPipeline(req, progress, parent)
		if err != nil {
			return nil, nil, err
		}
		var result any = out.Result
		if kind == "generate" {
			result = generateResult(out)
		}
		return result, replicaStream(kind, out.Graphs), nil
	}
}

// replicaStream writes every replica of a run's ensembles as an edge
// list under its marker line; it is nil when the run generated nothing.
func replicaStream(kind string, graphs []pipeline.StepGraphs) StreamFunc {
	if len(graphs) == 0 {
		return nil
	}
	return func(w io.Writer) error {
		for _, sg := range graphs {
			for i, h := range sg.Handles {
				var err error
				if kind == "generate" {
					_, err = fmt.Fprintf(w, "# replica %d\n", i)
				} else {
					_, err = fmt.Fprintf(w, "# step %s replica %d\n", sg.StepID, i)
				}
				if err != nil {
					return err
				}
				if err := graph.WriteEdgeList(w, h.Graph()); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
