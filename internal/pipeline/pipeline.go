// Package pipeline executes declarative dK workflows: an ordered list
// of steps (extract, generate, randomize, compare, census, metrics)
// whose graph inputs may be external references or the named outputs of
// earlier steps. It is the one code path behind every execution surface
// — the HTTP endpoints of internal/service (both the standalone
// /v1/extract‑style routes and POST /v1/pipelines) and the local Go
// facade pkg/dk run the same executor over different Backend
// implementations, which is what makes local and remote results
// byte-identical.
//
// Determinism contract: given the same request and backend contents,
// Run produces an identical Result at any worker count. Replica fan-out
// inside generate steps derives per-replica seeds exactly like
// generate.Replicas, and nothing in a Result depends on wall-clock time.
package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// Handle is one resolved graph with its lazily computed, cached
// derivatives. Implementations must be safe for concurrent use and must
// hand out graphs in canonical edge order (see graph.CanonicalClone) so
// index-addressed edge draws are a pure function of (edge set, seed).
type Handle interface {
	// Graph returns the parsed graph; callers treat it as read-only.
	Graph() *graph.CSR
	// Info returns the graph's content address and size.
	Info() dkapi.GraphInfo
	// Profile returns the dK-profile at depth d. The boolean reports
	// whether it was served without an extraction run (cache hit).
	Profile(d int) (*dk.Profile, bool, error)
	// Summary returns the scalar metric suite of the graph's giant
	// component for one (spectral, sample, seed) configuration; the
	// boolean reports a cache hit.
	Summary(spectral bool, sample int, seed int64) (metrics.Summary, bool, error)
}

// Backend resolves external graph references and interns derived
// graphs. The service implements it over its content-addressed cache;
// pkg/dk implements it over an in-process session.
type Backend interface {
	// Resolve turns an external reference (hash, edges, dataset) into a
	// Handle. Step references never reach Resolve — the executor
	// resolves those against its own outputs.
	Resolve(ref dkapi.GraphRef) (Handle, error)
	// Intern registers a generated graph and returns its Handle.
	Intern(g *graph.CSR) Handle
}

// Progress receives per-step status snapshots as the pipeline executes.
// The slice is freshly allocated per call; receivers may retain it.
type Progress func(steps []dkapi.StepStatus)

// Observer receives the wall-clock duration of each execution phase as
// steps run: "resolve" (reference → handle), "extract" (profile
// computation, cache hits included), "construct" (the generation /
// rewiring replica fan-out — the paper's §4.1.4 hot path), "intern"
// (registering generated replicas), "compare" (per-replica or pairwise
// distance computation), "metrics" (the scalar metric sweep), and
// "simulate" (the scenario fan-out of a netsim step). Netsim steps
// additionally report one "scenario:<kind>" observation per scenario —
// the service routes those into its scenarios section and the
// dk_scenario_* metric families rather than the phase table. Timings
// never enter a Result — results stay pure functions of the request —
// they only feed operational instrumentation such as the phases section
// of the service's /v1/stats. A nil Observer costs nothing (no clock
// reads).
type Observer func(op, phase string, d time.Duration)

// StepGraphs pairs a generate/randomize step with its replica handles,
// in step order — the bulk output of a pipeline run.
type StepGraphs struct {
	StepID  string
	Handles []Handle
}

// Outcome bundles the deterministic result summary with the generated
// graphs (for streaming or writing to disk).
type Outcome struct {
	Result *dkapi.PipelineResult
	Graphs []StepGraphs
}

// Run executes a validated pipeline against the backend. Steps run in
// declaration order; the first failing step aborts the run (later steps
// are reported as skipped in the final progress snapshot, and the error
// names the failing step). Call Validate first: Run assumes the request
// is well-formed and panics are not part of its contract.
func Run(ctx context.Context, b Backend, req dkapi.PipelineRequest, progress Progress) (*Outcome, error) {
	return RunObserved(ctx, b, req, progress, nil)
}

// RunObserved is Run with per-phase timing instrumentation; obs may be
// nil. It exists as a separate entry point so the common local path
// (pkg/dk) keeps the plain signature while the service threads its
// stats recorder through.
func RunObserved(ctx context.Context, b Backend, req dkapi.PipelineRequest, progress Progress, obs Observer) (*Outcome, error) {
	return RunTraced(ctx, b, req, progress, obs, nil)
}

// SpanSetter is implemented by backends whose handle operations record
// trace spans of their own (e.g. artifact-store reads): the executor
// publishes its current span — step or phase — so store-level spans
// nest under the phase that caused them. Calls are serialized; the
// executor touches the backend only from its own goroutine.
type SpanSetter interface {
	SetTraceSpan(*trace.Span)
}

// RunTraced is RunObserved under a parent trace span: the executor
// opens one child span per step and one grandchild per execution phase,
// and generate steps additionally record a span per replica carrying
// periodic rewiring convergence events. A nil parent degrades to
// RunObserved exactly (the nil-tracer contract: no clock reads, no
// allocations beyond the observer's own). Spans and events are
// observational only — the Outcome stays a pure function of the
// request.
func RunTraced(ctx context.Context, b Backend, req dkapi.PipelineRequest, progress Progress, obs Observer, parent *trace.Span) (*Outcome, error) {
	ex := &executor{
		b:       b,
		status:  make([]dkapi.StepStatus, len(req.Steps)),
		outputs: make(map[string]*stepOutput, len(req.Steps)),
		notify:  progress,
		obs:     obs,
		root:    parent,
	}
	if parent != nil {
		if sink, ok := b.(SpanSetter); ok {
			ex.sink = sink
		}
	}
	for i, st := range req.Steps {
		ex.status[i] = dkapi.StepStatus{ID: st.ID, Op: st.Op, Status: dkapi.StepPending}
	}
	out := &Outcome{Result: &dkapi.PipelineResult{Steps: make([]dkapi.StepResult, 0, len(req.Steps))}}
	for i, st := range req.Steps {
		if err := ctx.Err(); err != nil {
			ex.fail(i, err)
			return nil, fmt.Errorf("step %s: %w", st.ID, err)
		}
		ex.set(i, dkapi.StepRunning, "")
		ex.step = ex.root.Child("step", "id", st.ID, "op", st.Op)
		ex.setSink(ex.step)
		res, err := ex.runStep(st, out)
		if err != nil {
			ex.step.SetAttr("error", err.Error())
			ex.endStep()
			ex.fail(i, err)
			return nil, fmt.Errorf("step %s: %w", st.ID, err)
		}
		ex.endStep()
		out.Result.Steps = append(out.Result.Steps, *res)
		ex.set(i, dkapi.StepDone, "")
	}
	return out, nil
}

// executor carries the mutable run state.
type executor struct {
	b       Backend
	status  []dkapi.StepStatus
	outputs map[string]*stepOutput
	notify  Progress
	obs     Observer
	root    *trace.Span // parent span of the whole run (nil = untraced)
	step    *trace.Span // span of the step currently executing
	cur     *trace.Span // span of the phase currently executing
	sink    SpanSetter  // backend span publication (nil when untraced)
}

// setSink publishes sp as the backend's current parent span.
func (ex *executor) setSink(sp *trace.Span) {
	if ex.sink != nil {
		ex.sink.SetTraceSpan(sp)
	}
}

// endStep closes the current step span and resets the span cursor.
func (ex *executor) endStep() {
	ex.step.End()
	ex.step, ex.cur = nil, nil
	ex.setSink(nil)
}

// phase starts timing one execution phase of op and returns the stop
// function; with no observer and no trace both ends are free (no clock
// reads). Under a trace the phase also becomes a child span of the
// current step, published to the backend sink so store-level spans nest
// beneath it.
func (ex *executor) phase(op, phase string) func() {
	obs, step := ex.obs, ex.step
	if obs == nil && step == nil {
		return func() {}
	}
	sp := step.Child(phase)
	if sp != nil {
		ex.cur = sp
		ex.setSink(sp)
	}
	var start time.Time
	if obs != nil {
		start = time.Now()
	}
	return func() {
		if obs != nil {
			obs(op, phase, time.Since(start))
		}
		sp.End()
		if sp != nil {
			ex.cur = nil
			ex.setSink(ex.step)
		}
	}
}

// timedResolve wraps resolve in the "resolve" phase.
func (ex *executor) timedResolve(op string, ref dkapi.GraphRef) (Handle, error) {
	done := ex.phase(op, "resolve")
	h, err := ex.resolve(ref)
	done()
	return h, err
}

// stepOutput is the graph output of one finished step: the resolved
// source for single-graph ops, the replica ensemble for generate ops.
type stepOutput struct {
	single   Handle
	replicas []Handle
}

func (ex *executor) set(i int, status, errMsg string) {
	ex.status[i].Status = status
	ex.status[i].Error = errMsg
	if ex.notify != nil {
		snap := make([]dkapi.StepStatus, len(ex.status))
		copy(snap, ex.status)
		ex.notify(snap)
	}
}

// fail marks step i failed and everything after it skipped.
func (ex *executor) fail(i int, err error) {
	for j := i + 1; j < len(ex.status); j++ {
		ex.status[j].Status = dkapi.StepSkipped
	}
	ex.set(i, dkapi.StepFailed, err.Error())
}

// resolve turns a step's graph reference into a Handle: step references
// against prior outputs, everything else through the backend.
func (ex *executor) resolve(ref dkapi.GraphRef) (Handle, error) {
	if ref.Step == "" {
		return ex.b.Resolve(ref)
	}
	out := ex.outputs[ref.Step]
	if out == nil {
		return nil, fmt.Errorf("step %q has no graph output yet", ref.Step)
	}
	if out.replicas != nil {
		if ref.Replica < 0 || ref.Replica >= len(out.replicas) {
			return nil, fmt.Errorf("step %q has %d replicas; replica %d does not exist",
				ref.Step, len(out.replicas), ref.Replica)
		}
		return out.replicas[ref.Replica], nil
	}
	if ref.Replica != 0 {
		return nil, fmt.Errorf("step %q has a single graph output; replica %d does not exist", ref.Step, ref.Replica)
	}
	return out.single, nil
}

// depth applies the per-op default for a step's optional D field.
func depth(st dkapi.PipelineStep) int {
	if st.D != nil {
		return *st.D
	}
	switch st.Op {
	case dkapi.OpGenerate, dkapi.OpRandomize:
		return 2
	default:
		return 3
	}
}

// analysisSeed applies the standalone-endpoint default (seed 1) for
// metric sampling and Lanczos; generate steps keep the raw seed.
func analysisSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

func (ex *executor) runStep(st dkapi.PipelineStep, out *Outcome) (*dkapi.StepResult, error) {
	switch st.Op {
	case dkapi.OpExtract:
		return ex.runExtract(st)
	case dkapi.OpGenerate, dkapi.OpRandomize:
		return ex.runGenerate(st, out)
	case dkapi.OpCompare:
		return ex.runCompare(st)
	case dkapi.OpCensus:
		return ex.runCensus(st)
	case dkapi.OpMetrics:
		return ex.runMetrics(st)
	case dkapi.OpNetsim:
		return ex.runNetsim(st)
	default:
		return nil, fmt.Errorf("unknown op %q", st.Op)
	}
}

func (ex *executor) runExtract(st dkapi.PipelineStep) (*dkapi.StepResult, error) {
	h, err := ex.timedResolve(st.Op, *st.Source)
	if err != nil {
		return nil, err
	}
	d := depth(st)
	done := ex.phase(st.Op, "extract")
	p, hit, err := h.Profile(d)
	done()
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	gi := h.Info()
	res := &dkapi.StepResult{ID: st.ID, Op: st.Op, Graph: &gi, D: d, Cached: hit, Profile: p}
	if st.Metrics {
		done := ex.phase(st.Op, "metrics")
		sum, _, err := h.Summary(st.Spectral, st.Sample, analysisSeed(st.Seed))
		done()
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		res.Summary = &sum
	}
	ex.outputs[st.ID] = &stepOutput{single: h}
	return res, nil
}

// methodName normalizes the wire method (empty = randomize); randomize
// steps force it outright.
func methodName(st dkapi.PipelineStep) string {
	if st.Op == dkapi.OpRandomize || st.Method == "" {
		return "randomize"
	}
	return st.Method
}

func (ex *executor) runGenerate(st dkapi.PipelineStep, out *Outcome) (*dkapi.StepResult, error) {
	h, err := ex.timedResolve(st.Op, *st.Source)
	if err != nil {
		return nil, err
	}
	d := depth(st)
	name := methodName(st)
	method, randomize, err := generate.ParseMethod(name, d)
	if err != nil {
		return nil, err
	}
	replicas := st.Replicas
	if replicas == 0 {
		replicas = 1
	}
	var profile *dk.Profile
	if !randomize || st.Compare {
		done := ex.phase(st.Op, "extract")
		p, _, err := h.Profile(d)
		done()
		if err != nil {
			return nil, fmt.Errorf("extract: %w", err)
		}
		profile = p
	}
	src := h.Graph()
	construct := ex.phase(st.Op, "construct")
	// The construct-phase span: replica spans hang off it, and the
	// replica fan-out runs concurrently, so each goroutine gets its own
	// child rather than touching the executor's span cursor.
	constructSpan := ex.cur
	graphs, err := generate.Replicas(replicas, st.Seed, func(i int, rng *rand.Rand) (*graph.CSR, error) {
		var rsp *trace.Span
		if constructSpan != nil {
			rsp = constructSpan.Child("replica", "i", strconv.Itoa(i))
			defer rsp.End()
		}
		if randomize {
			opt := generate.RandomizeOptions{Rng: rng}
			if rsp != nil {
				opt.OnProgress = func(p generate.RewireProgress) {
					rsp.Event("rewire", convergenceFields(p))
				}
			}
			g, _, err := generate.Randomize(src, d, opt)
			return g, err
		}
		return generate.FromProfile(profile, d, method, rng)
	})
	construct()
	if err != nil {
		return nil, err
	}
	gi := h.Info()
	res := &dkapi.StepResult{
		ID: st.ID, Op: st.Op, Graph: &gi, D: d,
		Method: name, Seed: st.Seed,
		Replicas: make([]dkapi.ReplicaInfo, len(graphs)),
	}
	handles := make([]Handle, len(graphs))
	for i, g := range graphs {
		intern := ex.phase(st.Op, "intern")
		rh := ex.b.Intern(g)
		intern()
		handles[i] = rh
		ri := dkapi.ReplicaInfo{Index: i, N: g.N(), M: g.M()}
		if st.Compare {
			// The replica's profile extraction is an "extract"
			// observation, not "compare": the depth-d census dominates
			// the cheap distance arithmetic, and folding it into
			// compare would misattribute the hot spot in /v1/stats.
			ext := ex.phase(st.Op, "extract")
			got, _, err := rh.Profile(d)
			ext()
			if err != nil {
				return nil, err
			}
			cmp := ex.phase(st.Op, "compare")
			dist, err := dk.Distance(profile, got, d)
			cmp()
			if err != nil {
				return nil, err
			}
			ri.Distance = &dist
		}
		res.Replicas[i] = ri
	}
	ex.outputs[st.ID] = &stepOutput{replicas: handles}
	out.Graphs = append(out.Graphs, StepGraphs{StepID: st.ID, Handles: handles})
	return res, nil
}

// convergenceFields flattens one rewiring convergence sample into the
// numeric fields of a trace event. Rejection deltas are emitted only
// when nonzero to keep the JSONL compact over long runs.
func convergenceFields(p generate.RewireProgress) map[string]float64 {
	f := map[string]float64{
		"sweep":           float64(p.Sweep),
		"attempts":        float64(p.Attempts),
		"accepted":        float64(p.Accepted),
		"window_attempts": float64(p.WindowAttempts),
		"window_accepted": float64(p.WindowAccepted),
		"acceptance_rate": p.AcceptanceRate,
	}
	for k, v := range map[string]int{
		"rej_self_loop":      p.Rejected.SelfLoop,
		"rej_duplicate_edge": p.Rejected.DuplicateEdge,
		"rej_jdd_mismatch":   p.Rejected.JDDMismatch,
		"rej_census_changed": p.Rejected.CensusChanged,
		"rej_objective":      p.Rejected.Objective,
		"rej_disconnected":   p.Rejected.Disconnected,
	} {
		if v != 0 {
			f[k] = float64(v)
		}
	}
	if p.HasObjective {
		f["objective"] = p.Objective
	}
	return f
}

func (ex *executor) runCompare(st dkapi.PipelineStep) (*dkapi.StepResult, error) {
	ha, err := ex.timedResolve(st.Op, *st.A)
	if err != nil {
		return nil, err
	}
	hb, err := ex.timedResolve(st.Op, *st.B)
	if err != nil {
		return nil, err
	}
	d := depth(st)
	seed := analysisSeed(st.Seed)
	ia, ib := ha.Info(), hb.Info()
	res := &dkapi.StepResult{ID: st.ID, Op: st.Op, A: &ia, B: &ib, D: d}
	profiles := make([]*dk.Profile, 2)
	extract := ex.phase(st.Op, "extract")
	for i, h := range []Handle{ha, hb} {
		p, _, err := h.Profile(d)
		if err != nil {
			extract()
			return nil, fmt.Errorf("extract: %w", err)
		}
		profiles[i] = p
	}
	extract()
	cmp := ex.phase(st.Op, "compare")
	for dd := 0; dd <= d; dd++ {
		v, err := dk.Distance(profiles[0], profiles[1], dd)
		if err != nil {
			cmp()
			return nil, fmt.Errorf("distance: %w", err)
		}
		res.Distances = append(res.Distances, dkapi.DistanceEntry{D: dd, Value: v})
	}
	cmp()
	done := ex.phase(st.Op, "metrics")
	defer done()
	sa, _, err := ha.Summary(st.Spectral, st.Sample, seed)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	sb, _, err := hb.Summary(st.Spectral, st.Sample, seed)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	res.SummaryA, res.SummaryB = &sa, &sb
	return res, nil
}

func (ex *executor) runCensus(st dkapi.PipelineStep) (*dkapi.StepResult, error) {
	h, err := ex.timedResolve(st.Op, *st.Source)
	if err != nil {
		return nil, err
	}
	done := ex.phase(st.Op, "extract")
	p, _, err := h.Profile(3)
	done()
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	gi := h.Info()
	ex.outputs[st.ID] = &stepOutput{single: h}
	return &dkapi.StepResult{ID: st.ID, Op: st.Op, Graph: &gi, D: 3, Census: p.Census}, nil
}

func (ex *executor) runMetrics(st dkapi.PipelineStep) (*dkapi.StepResult, error) {
	h, err := ex.timedResolve(st.Op, *st.Source)
	if err != nil {
		return nil, err
	}
	done := ex.phase(st.Op, "metrics")
	sum, _, err := h.Summary(st.Spectral, st.Sample, analysisSeed(st.Seed))
	done()
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	gi := h.Info()
	ex.outputs[st.ID] = &stepOutput{single: h}
	return &dkapi.StepResult{ID: st.ID, Op: st.Op, Graph: &gi, Summary: &sum}, nil
}

// runNetsim resolves the measured source plus its replica ensemble and
// runs each scenario's (graph × trial) fan-out. Per-scenario seeds
// derive from the step seed with SubSeed, so the step's curves are a
// pure function of the request at any worker count. Each scenario runs
// under its own "simulate" phase span (tagged with the kind) and emits a
// "scenario:<kind>" observation for the service's scenario telemetry.
func (ex *executor) runNetsim(st dkapi.PipelineStep) (*dkapi.StepResult, error) {
	h, err := ex.timedResolve(st.Op, *st.Source)
	if err != nil {
		return nil, err
	}
	done := ex.phase(st.Op, "resolve")
	measured := h.Graph().Static()
	ensemble := make([]*graph.Static, len(st.Ensemble))
	for i, ref := range st.Ensemble {
		eh, err := ex.resolve(ref)
		if err != nil {
			done()
			return nil, fmt.Errorf("ensemble[%d]: %w", i, err)
		}
		ensemble[i] = eh.Graph().Static()
	}
	done()
	seed := analysisSeed(st.Seed)
	gi := h.Info()
	res := &dkapi.StepResult{
		ID: st.ID, Op: st.Op, Graph: &gi, Seed: seed,
		EnsembleSize: len(ensemble),
		Scenarios:    make([]dkapi.ScenarioCurves, len(st.Scenarios)),
	}
	for si, sp := range st.Scenarios {
		var start time.Time
		if ex.obs != nil {
			start = time.Now()
		}
		stop := ex.phase(st.Op, "simulate")
		if ex.cur != nil {
			ex.cur.SetAttr("kind", sp.Kind)
		}
		sc, err := scenario.Run(measured, ensemble, sp, parallel.SubSeed(seed, si))
		stop()
		if err != nil {
			return nil, fmt.Errorf("scenario %d (%s): %w", si, sp.Kind, err)
		}
		if ex.obs != nil {
			ex.obs(st.Op, "scenario:"+sp.Kind, time.Since(start))
		}
		res.Scenarios[si] = sc
	}
	ex.outputs[st.ID] = &stepOutput{single: h}
	return res, nil
}
