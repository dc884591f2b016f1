package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/spectral"
	"repro/internal/subgraphs"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// The traced run repeats a pkg/dk pass by calling each layer's public
// functions directly, in the order and with the arguments the facade
// uses, so it produces the same replicas. Each layer call runs under an
// internal/trace span named "<layer>.<call>"; session, op and replica
// spans are glue. Allocation is measured with runtime/metrics around
// each call on the client goroutine; calls inside a replica fan-out run
// concurrently, so the fan-out's allocation is charged to it as a whole.

// recorder collects the traced run's spans, allocations and counters.
type recorder struct {
	tr    *trace.Trace
	alloc map[string]float64 // span or fan-out name → bytes allocated
	mu    sync.Mutex         // guards count: replica goroutines add to it
	count map[string]float64
}

func newRecorder(id string, attrs ...string) *recorder {
	tr := trace.New(id, "dkperf", attrs...)
	tr.SetLimits(1<<20, 1<<20)
	return &recorder{tr: tr, alloc: map[string]float64{}, count: map[string]float64{}}
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.count[name] += v
	r.mu.Unlock()
}

// readRuntime reads runtime/metrics samples by name.
func readRuntime(names ...string) []float64 {
	s := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

const heapAllocs = "/gc/heap/allocs:bytes"

// layer runs f, a call into one layer from the client goroutine, under a
// child span of parent and charges its allocation to name.
func (r *recorder) layer(parent *trace.Span, name string, f func()) {
	sp := parent.Child(name)
	a0 := readRuntime(heapAllocs)[0]
	f()
	r.alloc[name] += readRuntime(heapAllocs)[0] - a0
	sp.End()
}

// timed runs f under a child span of parent; for calls inside a fan-out.
func timed(parent *trace.Span, name string, f func()) {
	sp := parent.Child(name)
	f()
	sp.End()
}

// entry mirrors a session cache entry: a canonical graph with its
// content address and the derivatives the facade memoizes on it.
type entry struct {
	g         *graph.CSR
	hash      string
	profile   *dk.Profile // deepest extraction so far
	gcc       *graph.Static
	summaries map[summaryKey]metrics.Summary
}

type summaryKey struct {
	spectral bool
	sources  int
	seed     int64
}

// tracedSession mirrors one dk.Session.
type tracedSession struct {
	r       *recorder
	entries map[string]*entry
}

// canonical mirrors the canonicalization every cached graph gets.
func (s *tracedSession) canonical(sp *trace.Span, g *graph.CSR) *graph.CSR {
	s.r.layer(sp, "graph.canonical", func() {
		if !g.EdgesCanonicallyOrdered() {
			g = g.CanonicalClone()
		}
	})
	return g
}

func (s *tracedSession) hash(sp *trace.Span, g *graph.CSR, labels []int) string {
	var h string
	s.r.layer(sp, "graph.hash", func() { h = graph.ContentHash(g, labels) })
	return h
}

// intern mirrors Session.Add: canonicalize, address, and look up.
func (s *tracedSession) intern(sp *trace.Span, g *graph.CSR, labels []int) *entry {
	g = s.canonical(sp, g)
	h := s.hash(sp, g, labels)
	if e := s.entries[h]; e != nil {
		return e
	}
	e := &entry{g: g, hash: h}
	s.entries[h] = e
	return e
}

// detached mirrors the standalone entry a generated replica gets.
func (s *tracedSession) detached(sp *trace.Span, g *graph.CSR) *entry {
	g = s.canonical(sp, g)
	return &entry{g: g, hash: s.hash(sp, g, nil)}
}

// profile mirrors Entry.Profile, with the census split out of dk.Extract
// so the subgraphs layer gets its own span.
func (s *tracedSession) profile(sp *trace.Span, e *entry, d int) (*dk.Profile, error) {
	var p *dk.Profile
	var err error
	if e.profile != nil && e.profile.D >= d {
		if e.profile.D == d {
			return e.profile, nil
		}
		s.r.layer(sp, "dk.extract", func() { p, err = e.profile.Restrict(d) })
		return p, err
	}
	s.r.layer(sp, "dk.extract", func() { p, err = dk.Extract(e.g, min(d, 2)) })
	if err != nil {
		return nil, err
	}
	if d == 3 {
		var c *subgraphs.Census
		s.r.layer(sp, "subgraphs.count", func() { c = subgraphs.Count(e.g) })
		p.Census, p.D = c, 3
		s.r.add("subgraphs.census_keys", float64(len(c.Wedges)+len(c.Triangles)))
		s.r.add("subgraphs.classes", float64(len(p.Degrees.Count)))
	}
	e.profile = p
	return p, nil
}

// summary mirrors Entry.Summary and metrics.Summarize call by call, with
// the same random stream.
func (s *tracedSession) summary(sp *trace.Span, e *entry, spectralOn bool, sources int, seed int64) (metrics.Summary, error) {
	key := summaryKey{spectralOn, sources, seed}
	if sum, ok := e.summaries[key]; ok {
		return sum, nil
	}
	if e.gcc == nil {
		var gcc *graph.CSR
		s.r.layer(sp, "graph.gcc", func() { gcc, _ = graph.GiantComponent(e.g) })
		s.r.layer(sp, "graph.static", func() { e.gcc = gcc.Static() })
	}
	st := e.gcc
	rng := rand.New(rand.NewSource(seed))
	sum := metrics.Summary{N: st.N(), M: st.M(), AvgDegree: st.AvgDegree()}
	s.r.layer(sp, "metrics.assortativity", func() { sum.R = metrics.Assortativity(st) })
	s.r.layer(sp, "metrics.clustering", func() { sum.CBar = metrics.MeanClustering(st) })
	s.r.layer(sp, "metrics.likelihood", func() { sum.S = metrics.LikelihoodS(st) })
	s.r.layer(sp, "metrics.s2", func() { sum.S2 = metrics.S2(st) })
	var dd *metrics.DistanceDistribution
	s.r.layer(sp, "metrics.distances", func() {
		switch {
		case sources > 0:
			dd = metrics.SampledDistances(st, sources, rng)
		case st.N() > metrics.AutoSampleThreshold:
			sources = metrics.AutoSampleSources
			dd = metrics.SampledDistances(st, sources, rng)
		default:
			sources = st.N()
			dd = metrics.Distances(st)
		}
	})
	s.r.add("metrics.bfs_sources", float64(sources))
	sum.DBar, sum.SigmaD = dd.Mean(), dd.StdDev()
	if spectralOn {
		var err error
		s.r.layer(sp, "spectral.extremes", func() { sum.Lambda1, sum.LambdaN, err = spectral.Extremes(st, rng, 0) })
		if err != nil {
			return sum, fmt.Errorf("metrics: spectrum: %w", err)
		}
	}
	if e.summaries == nil {
		e.summaries = map[summaryKey]metrics.Summary{}
	}
	e.summaries[key] = sum
	return sum, nil
}

// fanOut is one replica fan-out as the parallel metrics see it.
type fanOut struct {
	wall time.Duration
	busy []time.Duration // per replica
}

// tracedPass is the traced twin of pass.
type tracedPass struct {
	outcomes []outcome
	fanOuts  []fanOut
	runtime  []float64 // runtimeSamples deltas summed over the sessions
	tally    tally
}

// runTracedSession runs session i traced, under the recorder's root
// span. Like a facade session it starts from a collected heap; the
// runtime/metrics deltas leave that collection out.
func runTracedSession(r *recorder, w workload, seed int64, i int, input []byte, tp *tracedPass) {
	debug.FreeOSMemory()
	rt0 := readRuntime(runtimeSamples...)
	sp := r.tr.Root().Child("session", "i", strconv.Itoa(i))
	o, err := tracedSessionRun(r, sp, w, sessionSeed(seed, i), input, tp)
	sp.End()
	for k, v := range readRuntime(runtimeSamples...) {
		tp.runtime[k] += v - rt0[k]
	}
	tp.tally.attempted += 1 + len(w.steps)
	if err != nil {
		tp.tally.fail("traced session %d: %v", i, err)
		return
	}
	tp.outcomes = append(tp.outcomes, o)
}

func tracedSessionRun(r *recorder, sessionSpan *trace.Span, w workload, seed int64, input []byte, tp *tracedPass) (outcome, error) {
	var o outcome
	s := &tracedSession{r: r, entries: map[string]*entry{}}

	// dk.ReadGraph: parse, build the CSR, canonicalize, address.
	sp := sessionSpan.Child("op", "op", "ingest")
	var raw *graph.Graph
	var labels []int
	var err error
	r.layer(sp, "graph.parse", func() { raw, labels, err = graph.ReadEdgeList(bytes.NewReader(input)) })
	if err != nil {
		sp.End()
		return o, fmt.Errorf("ReadEdgeList: %w", err)
	}
	var g *graph.CSR
	r.layer(sp, "graph.csr", func() { g = raw.CSR() })
	g = s.canonical(sp, g)
	s.hash(sp, g, labels)
	sp.End()

	var ensemble []*entry
	for j, st := range w.steps {
		sp := sessionSpan.Child("op", "op", st.op, "method", st.method, "d", strconv.Itoa(st.d))
		err := s.step(sp, st, stepSeed(seed, j), g, labels, &ensemble, &o, tp)
		sp.End()
		if err != nil {
			return o, fmt.Errorf("step %d (%s): %w", j, st.op, err)
		}
	}
	return o, nil
}

// step mirrors one pkg/dk call on the source graph g.
func (s *tracedSession) step(sp *trace.Span, st step, seed int64, g *graph.CSR, labels []int, ensemble *[]*entry, o *outcome, tp *tracedPass) error {
	r := s.r
	src := s.intern(sp, g, labels)
	switch st.op {
	case opExtract:
		if _, err := s.profile(sp, src, st.d); err != nil {
			return err
		}
		if st.metrics {
			sum, err := s.summary(sp, src, st.spectral, 0, 1)
			if err != nil {
				return err
			}
			o.summaries = append(o.summaries, sum)
		}
	case opGenerate:
		reps, dists, err := s.generate(sp, src, st, seed, tp)
		if err != nil {
			return err
		}
		hashes := make([]string, len(reps))
		for i, e := range reps {
			hashes[i] = e.hash
		}
		o.hashes = append(o.hashes, hashes)
		if st.compare {
			o.distances = append(o.distances, dists)
		}
		if st.method == "randomize" && *ensemble == nil {
			*ensemble = reps
		}
	case opCompare:
		b := s.intern(sp, (*ensemble)[0].g, nil)
		pa, err := s.profile(sp, src, st.d)
		if err != nil {
			return err
		}
		pb, err := s.profile(sp, b, st.d)
		if err != nil {
			return err
		}
		for dd := 0; dd <= st.d; dd++ {
			r.layer(sp, "dk.distance", func() { _, err = dk.Distance(pa, pb, dd) })
			if err != nil {
				return err
			}
		}
		for _, e := range []*entry{src, b} {
			sum, err := s.summary(sp, e, st.spectral, 0, 1)
			if err != nil {
				return err
			}
			o.summaries = append(o.summaries, sum)
		}
	case opSimulate:
		var measured *graph.Static
		r.layer(sp, "graph.static", func() { measured = src.g.Static() })
		statics := make([]*graph.Static, len(*ensemble))
		for i, rep := range *ensemble {
			e := s.intern(sp, rep.g, nil)
			r.layer(sp, "graph.static", func() { statics[i] = e.g.Static() })
		}
		for si, spec := range st.scenarios {
			var c dkapi.ScenarioCurves
			var err error
			r.layer(sp, "scenario."+spec.Kind, func() {
				c, err = scenario.Run(measured, statics, spec, parallel.SubSeed(seed, si))
			})
			if err != nil {
				return err
			}
			o.scenarios = append(o.scenarios, c)
		}
	}
	return nil
}

// generate mirrors a generate step: the replica fan-out of
// internal/pipeline with the construction of core.Generate, then the
// per-replica interning and comparison.
func (s *tracedSession) generate(sp *trace.Span, src *entry, st step, seed int64, tp *tracedPass) ([]*entry, []float64, error) {
	r := s.r
	var target *dk.Profile
	if st.method != "randomize" || st.compare {
		var err error
		if target, err = s.profile(sp, src, st.d); err != nil {
			return nil, nil, err
		}
	}
	fan := sp.Child("parallel.fanout", "method", st.method, "replicas", strconv.Itoa(st.replicas))
	busy := make([]time.Duration, st.replicas)
	a0 := readRuntime(heapAllocs)[0]
	t0 := time.Now()
	graphs, err := generate.Replicas(st.replicas, seed, func(i int, rng *rand.Rand) (*graph.CSR, error) {
		start := time.Now()
		rsp := fan.Child("replica", "i", strconv.Itoa(i))
		defer func() {
			rsp.End()
			busy[i] = time.Since(start)
		}()
		switch st.method {
		case "randomize":
			var out *graph.CSR
			var stats generate.RewireStats
			var err error
			timed(rsp, "generate.rewire", func() {
				out, stats, err = generate.Randomize(src.g, st.d, generate.RandomizeOptions{Rng: rng})
			})
			r.add("generate.rewire_attempts", float64(stats.Attempts))
			r.add("generate.rewire_accepted", float64(stats.Accepted))
			return out, err
		case "targeting":
			return targetReplica(r, rsp, target, st.d, rng)
		case "pseudograph":
			if st.d != 2 {
				return nil, fmt.Errorf("pseudograph at d=%d is not mirrored", st.d)
			}
			var res *generate.PseudographResult
			var err error
			timed(rsp, "generate.pseudograph", func() { res, err = generate.Pseudograph2K(target.Joint, generate.Options{Rng: rng}) })
			if err != nil {
				return nil, err
			}
			return res.GCC, nil
		}
		return nil, fmt.Errorf("method %q is not mirrored", st.method)
	})
	wall := time.Since(t0)
	fan.End()
	r.alloc["fanout."+st.method] += readRuntime(heapAllocs)[0] - a0
	if err != nil {
		return nil, nil, err
	}
	tp.fanOuts = append(tp.fanOuts, fanOut{wall: wall, busy: busy})

	reps := make([]*entry, len(graphs))
	var dists []float64
	for i, g := range graphs {
		reps[i] = s.detached(sp, g)
		if !st.compare {
			continue
		}
		got, err := s.profile(sp, reps[i], st.d)
		if err != nil {
			return nil, nil, err
		}
		var d float64
		r.layer(sp, "dk.distance", func() { d, err = dk.Distance(target, got, st.d) })
		if err != nil {
			return nil, nil, err
		}
		dists = append(dists, d)
	}
	return reps, dists, nil
}

// targetReplica mirrors core.Generate with MethodTargeting at d=2 or 3:
// a (d−1)K bootstrap by matching, falling back to the full pseudograph
// when matching fails, then dK-targeting rewiring stopped at zero. It
// records what the facade hides: fallbacks, D before and after, and why
// the run stopped.
func targetReplica(r *recorder, sp *trace.Span, p *dk.Profile, d int, rng *rand.Rand) (*graph.CSR, error) {
	if d != 2 && d != 3 {
		return nil, fmt.Errorf("targeting at d=%d is not mirrored", d)
	}
	gopt := generate.Options{Rng: rng}
	var start *graph.CSR
	var err error
	timed(sp, "generate.matching", func() {
		if d == 2 {
			start, err = generate.Matching1K(p.Degrees, gopt)
		} else {
			start, err = generate.Matching2K(p.Joint, gopt)
		}
	})
	if err != nil {
		r.add("generate.construct_fallbacks", 1)
		sp.SetAttr("fallback", err.Error())
		var res *generate.PseudographResult
		var err2 error
		timed(sp, "generate.pseudograph", func() {
			if d == 2 {
				res, err2 = generate.Pseudograph1K(p.Degrees, gopt)
			} else {
				res, err2 = generate.Pseudograph2K(p.Joint, gopt)
			}
		})
		if err2 != nil {
			return nil, err
		}
		start = res.Full
	}
	var res *generate.TargetResult
	timed(sp, "generate.target", func() {
		res, err = generate.TargetRewire(start, p, d, generate.TargetOptions{Rng: rng, StopAtZero: true})
	})
	if err != nil {
		return nil, err
	}
	// TargetRewire's defaults: at most 200·M proposals, and a stop after
	// 20·M consecutive rejections.
	stop := "patience"
	switch {
	case res.FinalD == 0:
		stop = "zero"
	case res.Stats.Attempts >= 200*start.M():
		stop = "max_attempts"
	}
	sp.SetAttr("stop", stop)
	sp.SetAttr("initial_d", strconv.FormatFloat(res.InitialD, 'g', -1, 64))
	sp.SetAttr("final_d", strconv.FormatFloat(res.FinalD, 'g', -1, 64))
	r.add("generate.target_stop_"+stop, 1)
	r.add("generate.target_replicas", 1)
	r.add("generate.target_attempts", float64(res.Stats.Attempts))
	r.add("generate.target_accepted", float64(res.Stats.Accepted))
	r.add("generate.target_initial_d", res.InitialD)
	r.add("generate.target_final_d", res.FinalD)
	return res.FinalGraph, nil
}
