package service

import (
	"net/http"
	"sync"

	"repro/internal/store"
	"repro/internal/trace"
)

// shouldTrace decides whether a request gets a trace: explicit opt-in
// via ?trace=1 on any route, plus the asynchronous submission routes by
// default — a job's trace is its post-hoc execution record, and the
// per-job cost is negligible next to the job itself. DisableTracing
// turns the whole subsystem off.
func (s *Server) shouldTrace(r *http.Request) bool {
	if s.opts.DisableTracing {
		return false
	}
	if r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1" {
		return true
	}
	if r.Method == http.MethodPost {
		switch r.URL.Path {
		case "/v1/pipelines", "/v1/generate":
			return true
		}
	}
	return false
}

// traceStore retains finished traces for GET /v1/jobs/{id}/trace: a
// bounded memory map (same retention count as terminal jobs), written
// through to the artifact store's jobs directory when one is configured
// — so a job's trace survives restarts alongside its journal records.
type traceStore struct {
	mu    sync.Mutex
	byJob map[string][]byte
	order []string // insertion order, for retention eviction
	max   int
	disk  *store.Store // nil = memory-only
}

func newTraceStore(max int, disk *store.Store) *traceStore {
	if max < 1 {
		max = 1
	}
	return &traceStore{byJob: make(map[string][]byte), max: max, disk: disk}
}

// save encodes and retains tr under id, evicting oldest-first beyond
// the bound. Disk write-through is best-effort: a full disk must not
// fail the job whose trace this is.
func (ts *traceStore) save(id string, tr *trace.Trace) {
	data := tr.MarshalJSONL()
	ts.mu.Lock()
	if _, exists := ts.byJob[id]; !exists {
		ts.order = append(ts.order, id)
	}
	ts.byJob[id] = data
	for len(ts.byJob) > ts.max {
		delete(ts.byJob, ts.order[0])
		ts.order = ts.order[1:]
	}
	ts.mu.Unlock()
	if ts.disk != nil {
		_ = ts.disk.PutTrace(id, data)
		ts.disk.PruneTraces(ts.max)
	}
}

// get returns the encoded trace for id, falling back to the disk tier
// after a memory eviction or restart.
func (ts *traceStore) get(id string) ([]byte, bool) {
	ts.mu.Lock()
	data, ok := ts.byJob[id]
	ts.mu.Unlock()
	if ok {
		return data, true
	}
	if ts.disk == nil {
		return nil, false
	}
	data, err := ts.disk.GetTrace(id)
	return data, err == nil
}

// jobTracer carries a request's trace across the async job boundary:
// the "job" span (with its "queued" child) opens under the request's
// root span at submission, the wrapped job body closes them as the job
// executes, and the finished trace is saved under the job id — which
// the handler only learns after submission, hence the id channel (the
// buffered send in bind happens-before the receive in the wrapped
// body's save). A nil *jobTracer is the disabled tracer: every method
// no-ops and wrap returns the body unchanged.
type jobTracer struct {
	s       *Server
	tr      *trace.Trace
	jobSpan *trace.Span
	queued  *trace.Span
	idCh    chan string
}

// newJobTracer opens the job span under the request's root span, or
// returns nil when the request is untraced.
func (s *Server) newJobTracer(r *http.Request, kind string) *jobTracer {
	root := trace.FromContext(r.Context())
	if root == nil {
		return nil
	}
	jt := &jobTracer{s: s, tr: root.Trace(), idCh: make(chan string, 1)}
	jt.jobSpan = root.Child("job", "kind", kind)
	jt.queued = jt.jobSpan.Child("queued")
	return jt
}

// span returns the job span to parent the pipeline run under (nil when
// untraced).
func (jt *jobTracer) span() *trace.Span {
	if jt == nil {
		return nil
	}
	return jt.jobSpan
}

// wrap closes the queued span when the job starts executing, ends the
// job span when the body returns, and saves the encoded trace under the
// job id delivered by bind.
func (jt *jobTracer) wrap(run TrackedJobFunc) TrackedJobFunc {
	if jt == nil {
		return run
	}
	return func(setProgress func(any)) (any, StreamFunc, error) {
		jt.queued.End()
		result, stream, err := run(setProgress)
		if err != nil {
			jt.jobSpan.SetAttr("error", err.Error())
		}
		jt.jobSpan.End()
		if id, ok := <-jt.idCh; ok {
			jt.s.traces.save(id, jt.tr)
		}
		return result, stream, err
	}
}

// bind delivers the submission outcome: the job id on success (which
// names the saved trace), or a closed channel on rejection so a queued
// wrap — there is none, the body never ran — cannot block and the
// request trace still records the failure.
func (jt *jobTracer) bind(job *Job, err error) {
	if jt == nil {
		return
	}
	if err != nil || job == nil {
		jt.jobSpan.SetAttr("error", "submit rejected")
		jt.queued.End()
		jt.jobSpan.End()
		close(jt.idCh)
		return
	}
	jt.jobSpan.SetAttr("job", job.ID())
	jt.idCh <- job.ID()
}
