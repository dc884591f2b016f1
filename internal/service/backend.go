package service

import (
	"context"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// svcBackend adapts the server's content-addressed cache to the
// pipeline executor. Every execution surface of the service — the
// standalone /v1/extract and /v1/compare handlers, generate and
// pipeline jobs, and journal recovery — runs the shared executor over
// it (see runPipeline), so profile extraction, replica fan-out, and
// metric summaries follow one code path (and hit one cache).
//
// Under a trace the executor publishes its current step or phase span
// through SetTraceSpan, and handles minted by the backend read that
// cursor at operation time — which nests artifact-store spans under the
// exact phase that caused them. An untraced run never calls
// SetTraceSpan, so the cursor stays nil. The executor serializes
// SetTraceSpan with handle operations on its own goroutine, so the
// cursor needs no lock; the concurrent replica fan-out never touches
// handles.
type svcBackend struct {
	s   *Server
	cur *trace.Span
}

var _ pipeline.SpanSetter = (*svcBackend)(nil)

func (b *svcBackend) SetTraceSpan(sp *trace.Span) { b.cur = sp }

// Resolve turns an external graph reference into a handle backed by a
// cache entry. Errors come back pre-classified (apiError), so handler
// code can map them straight to HTTP statuses.
func (b *svcBackend) Resolve(ref dkapi.GraphRef) (pipeline.Handle, error) {
	e, err := b.s.resolveRef(ref)
	if err != nil {
		return nil, err
	}
	return svcHandle{e: e, s: b.s, b: b}, nil
}

// Intern wraps a generated graph in a detached entry (see
// NewDetachedEntry): replica graphs are addressable inside their
// pipeline via step references and streamed in bulk results; interning
// a 128-replica ensemble into the shared LRU would churn every
// uploaded topology out of it.
func (b *svcBackend) Intern(g *graph.CSR) pipeline.Handle {
	return svcHandle{e: NewDetachedEntry(g), b: b}
}

// runPipeline executes one pipeline through the shared executor over a
// fresh backend, under parent when the run is traced. All service
// execution surfaces (sync handlers, jobs, recovery) funnel through
// here so phase timings and trace threading stay uniform.
func (s *Server) runPipeline(req dkapi.PipelineRequest, progress pipeline.Progress, parent *trace.Span) (*pipeline.Outcome, error) {
	return pipeline.RunTraced(context.Background(), &svcBackend{s: s}, req, progress, s.observePhase, parent)
}

// svcHandle is a cache entry viewed through the executor's Handle
// interface. A nil server marks a detached (replica) entry, whose
// extractions are not counted in the cache instrumentation — matching
// the historical behavior where per-replica profile extraction for
// compare never touched the counters. A non-nil b marks a handle
// minted by a backend: operations read its span cursor so disk-tier
// work records spans under the executing phase.
type svcHandle struct {
	e *Entry
	s *Server
	b *svcBackend
}

// span returns the executor's current phase span (nil when untraced).
func (h svcHandle) span() *trace.Span {
	if h.b == nil {
		return nil
	}
	return h.b.cur
}

func (h svcHandle) Graph() *graph.CSR { return h.e.Graph() }

func (h svcHandle) Info() dkapi.GraphInfo { return info(h.e) }

func (h svcHandle) Profile(d int) (*dk.Profile, bool, error) {
	p, hit, err := h.e.ProfileSpan(d, h.span())
	if err == nil && !hit && h.s != nil {
		h.s.cache.noteExtraction()
	}
	return p, hit, err
}

func (h svcHandle) Summary(spectral bool, sample int, seed int64) (metrics.Summary, bool, error) {
	return h.e.Summary(spectral, sample, seed)
}
