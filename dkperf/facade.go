package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

// outcome is what one session produced, in step order. Two runs of the
// same inputs must produce equal outcomes: repeated passes, and the
// traced run against the pkg/dk run.
type outcome struct {
	hashes    [][]string  // per generate step: replica content hashes
	distances [][]float64 // per generate step with compare: replica D_d to the source
	summaries []dkapi.Summary
	scenarios []dkapi.ScenarioCurves
}

// pass is the result of running every session of a workload once.
type pass struct {
	wall     time.Duration // summed session time
	outcomes []outcome
	tally    tally
}

// opMetric names the end-to-end metric an operation's time adds to.
func opMetric(st step) string {
	switch {
	case st.op != opGenerate:
		return st.op + "_s"
	case st.method == "randomize":
		return "randomize_s"
	case st.method == "targeting":
		return "target_s"
	default:
		return "construct_s"
	}
}

// runSession runs session i of a run through the public facade pkg/dk
// and returns the time of each operation kind, of the whole session as
// run_s, and, if peak is set, the session's RSS high-water mark as
// peak_rss_mb. With repeat set it then runs the session's ReadGraph and
// Extract calls again, as often as the workload asks, each in a fresh
// session off the run_s clock, so that ingest_s and extract_s have more
// samples. Output checks run after the clock stops; ok is false when
// the session failed before producing an outcome.
func runSession(ctx context.Context, t *tally, w workload, seed int64, i int, input []byte, repeat, peak bool) (times map[string][]float64, o outcome, ok bool) {
	// Sessions are independent users: each starts from a collected heap
	// with its free memory returned to the OS, outside the clock, so one
	// session's garbage neither slows the next nor raises its RSS.
	debug.FreeOSMemory()
	if peak {
		if err := resetPeakRSS(); err != nil {
			t.fail("peak RSS: %v", err)
			peak = false
		}
	}
	one := map[string]float64{}
	start := time.Now()
	o, err := facadeSession(ctx, w, sessionSeed(seed, i), input, one)
	one["run_s"] = time.Since(start).Seconds()
	if peak {
		if b, err := peakRSS(); err != nil {
			t.fail("peak RSS: %v", err)
		} else {
			one["peak_rss_mb"] = float64(b) / mib
		}
	}
	t.attempted += 1 + len(w.steps)
	times = map[string][]float64{}
	for name, v := range one {
		times[name] = []float64{v}
	}
	if err != nil {
		t.fail("session %d: %v", i, err)
		return times, o, false
	}
	checkRandomizeExact(t, w, i, o)

	extracts := slices.DeleteFunc(slices.Clone(w.steps), func(st step) bool { return st.op != opExtract })
	for r := 1; repeat && r < w.ingestRepeats; r++ {
		quick := workload{}
		if r < w.extractRepeats {
			quick.steps = extracts
		}
		debug.FreeOSMemory()
		again := map[string]float64{}
		_, err := facadeSession(ctx, quick, sessionSeed(seed, i), input, again)
		t.attempted += 1 + len(quick.steps)
		if err != nil {
			t.fail("session %d, repeat %d: %v", i, r, err)
			break
		}
		for name, v := range again {
			times[name] = append(times[name], v)
		}
	}
	return times, o, true
}

// facadeSession runs one session in a fresh dk.Session.
func facadeSession(ctx context.Context, w workload, seed int64, input []byte, times map[string]float64) (outcome, error) {
	var o outcome
	timed := func(metric string, f func() error) error {
		t0 := time.Now()
		err := f()
		times[metric] += time.Since(t0).Seconds()
		return err
	}
	var src *dk.Graph
	if err := timed("ingest_s", func() (err error) {
		src, err = dk.ReadGraph(bytes.NewReader(input))
		return err
	}); err != nil {
		return o, fmt.Errorf("ReadGraph: %w", err)
	}
	s := dk.NewSession()
	var ensemble []*dk.Graph // replicas of the first randomize step
	for j, st := range w.steps {
		var err error
		switch st.op {
		case opExtract:
			var res *dkapi.ExtractResponse
			err = timed(opMetric(st), func() (err error) {
				res, err = s.Extract(ctx, src, dk.ExtractOptions{D: dkapi.Int(st.d), Metrics: st.metrics, Spectral: st.spectral})
				return err
			})
			if err == nil && res.Summary != nil {
				o.summaries = append(o.summaries, *res.Summary)
			}
		case opGenerate:
			var res *dk.GenerateOutput
			err = timed(opMetric(st), func() (err error) {
				res, err = s.Generate(ctx, src, dk.GenerateOptions{
					D: dkapi.Int(st.d), Method: st.method, Replicas: st.replicas,
					Seed: stepSeed(seed, j), Compare: st.compare,
				})
				return err
			})
			if err != nil {
				break
			}
			hashes := make([]string, len(res.Graphs))
			for i, g := range res.Graphs {
				hashes[i] = g.Hash()
			}
			o.hashes = append(o.hashes, hashes)
			if st.compare {
				dists := make([]float64, len(res.Result.Replicas))
				for i, r := range res.Result.Replicas {
					if r.Distance == nil {
						return o, fmt.Errorf("step %d: replica %d has no distance", j, i)
					}
					dists[i] = *r.Distance
				}
				o.distances = append(o.distances, dists)
			}
			if st.method == "randomize" && ensemble == nil {
				ensemble = res.Graphs
			}
		case opCompare:
			var res *dkapi.CompareResponse
			err = timed(opMetric(st), func() (err error) {
				res, err = s.Compare(ctx, src, ensemble[0], dk.CompareOptions{D: dkapi.Int(st.d), Spectral: st.spectral})
				return err
			})
			if err == nil {
				o.summaries = append(o.summaries, res.SummaryA, res.SummaryB)
			}
		case opSimulate:
			var res *dk.SimulateOutput
			err = timed(opMetric(st), func() (err error) {
				res, err = s.Simulate(ctx, src, ensemble, dk.SimulateOptions{Scenarios: st.scenarios, Seed: stepSeed(seed, j)})
				return err
			})
			if err == nil {
				o.scenarios = res.Scenarios
			}
		}
		if err != nil {
			return o, fmt.Errorf("step %d (%s): %w", j, st.op, err)
		}
	}
	return o, nil
}
