// Command dkperf is the end-to-end benchmark of the dK workflow: it
// synthesizes a workload's input topologies from a seed, runs the
// user's path through the public facade pkg/dk (ReadGraph, then
// Session.Extract, Generate, Compare and Simulate), checks the outputs,
// and prints one JSON result line.
//
//	dkperf --workload skitter_d2 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats the workload for --seconds and reports the
// end-to-end metrics as medians over the repetitions. With --trace 1 it
// runs the workload once through pkg/dk and once more calling each
// layer directly under internal/trace spans, checks that both runs
// produced the same replicas, writes the trace as JSONL with its
// timeline, and reports per-layer metrics. run.sh builds and runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/trace"
)

func main() {
	name := flag.String("workload", "", "workload to run: skitter_d2, skitter_d3 or powerlaw_scale")
	seed := flag.Int64("seed", 1, "seed every input and generation stream derives from")
	seconds := flag.Float64("seconds", 20, "how long to repeat the workload with --trace 0")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end loop")
	outDir := flag.String("out", ".bench_build/dkperf", "directory for the report, trace and timeline files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil {
		err = run(w, *seed, *seconds, *traced == 1, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dkperf:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, seed int64, seconds float64, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// The worker budget is the machine's CPU count, for pkg/dk and the
	// traced run alike.
	parallel.SetWorkers(runtime.NumCPU())

	var t tally
	inputs, setupS, err := timedSetup(&t, w, seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	var all, printed map[string]metric
	var samples []map[string][]float64
	if traced {
		base += "-traced"
		all, err = runTracedSplit(ctx, &t, w, seed, inputs, base)
		if err != nil {
			return err
		}
		printed = pick(all, perLayerMetrics)
	} else {
		all, samples = runLoop(ctx, &t, w, seed, inputs, seconds)
		all["setup_s"] = metric{setupS, "s"}
		printed = pick(all, endToEndMetrics)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: printed}
	report := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Sessions int    `json:"sessions"`
		result
		All map[string]metric `json:"all_metrics"`
		// Samples holds, per input, every sample of each metric.
		Samples []map[string][]float64 `json:"samples,omitempty"`
	}{w.name, seed, w.sessions, res, all, samples}
	js, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupRepeats is how many times a run synthesizes its inputs.
const setupRepeats = 3

// timedSetup synthesizes the inputs setupRepeats times and returns the
// first copy with setup_s: the median over inputs of each input's median
// set-up time. Every copy must be byte-identical.
func timedSetup(t *tally, w workload, seed int64) ([][]byte, float64, error) {
	var inputs [][]byte
	perInput := make([][]float64, w.sessions)
	for rep := 0; rep < setupRepeats; rep++ {
		in, times, err := setup(w, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		t.attempted++
		if inputs == nil {
			inputs = in
		} else if !slices.EqualFunc(inputs, in, bytes.Equal) {
			t.fail("setup %d produced different inputs for the same seed", rep)
		}
		for i, s := range times {
			perInput[i] = append(perInput[i], s)
		}
		runtime.GC()
	}
	medians := make([]float64, len(perInput))
	for i, times := range perInput {
		medians[i] = median(times)
	}
	return inputs, median(medians), nil
}

// runLoop runs the sessions through pkg/dk in turn, cycling back to the
// first, until the given seconds have passed and at least one session
// has run twice, so repeated runs of one seed can be compared. Each
// end-to-end metric is the median over inputs of each input's median
// over its samples; peak_rss_mb is a session's RSS high-water mark.
func runLoop(ctx context.Context, t *tally, w workload, seed int64, inputs [][]byte, seconds float64) (map[string]metric, []map[string][]float64) {
	first := make([]*outcome, len(inputs))
	samples := make([]map[string][]float64, len(inputs)) // per input: metric → values
	start := time.Now()
	for k := 0; k <= len(inputs) || time.Since(start).Seconds() < seconds; k++ {
		i := k % len(inputs)
		times, o, ok := runSession(ctx, t, w, seed, i, inputs[i], true, true)
		if samples[i] == nil {
			samples[i] = map[string][]float64{}
		}
		for name, v := range times {
			samples[i][name] = append(samples[i][name], v...)
		}
		switch {
		case !ok:
		case first[i] == nil:
			first[i] = &o
		default:
			checkSame(t, fmt.Sprintf("session %d repeated", i), []outcome{*first[i]}, []outcome{o})
		}
	}
	perInput := map[string][]float64{}
	for _, s := range samples {
		for name, vals := range s {
			perInput[name] = append(perInput[name], median(vals))
		}
	}
	out := map[string]metric{}
	for name, vals := range perInput {
		unit := "s"
		if strings.HasSuffix(name, "_mb") {
			unit = "MB"
		}
		out[name] = metric{median(vals), unit}
	}
	var outcomes []outcome
	for _, o := range first {
		if o != nil {
			outcomes = append(outcomes, *o)
		}
	}
	if res := targetResiduals(w, outcomes); len(res) > 0 {
		out["target_residual"] = metric{mean(res), "D_d"}
	}
	if out["peak_rss_mb"].Value == 0 {
		t.fail("peak RSS: no session measured it")
	}
	out["failed_frac"] = metric{float64(t.failed) / float64(max(t.attempted, 1)), "ratio"}
	return out, samples
}

// runTracedSplit runs every input once through pkg/dk and once traced,
// checks that both agree, writes and validates the trace, and returns
// the per-layer metrics.
func runTracedSplit(ctx context.Context, t *tally, w workload, seed int64, inputs [][]byte, base string) (map[string]metric, error) {
	// The two runs alternate input by input, so that both see the same
	// machine conditions and their difference is the facade's, not the
	// machine's.
	var ref pass
	r := newRecorder(fmt.Sprintf("dkperf-%s-%d", w.name, seed), "workload", w.name, "seed", fmt.Sprint(seed))
	tp := tracedPass{runtime: make([]float64, len(runtimeSamples))}
	for i, in := range inputs {
		times, o, ok := runSession(ctx, &ref.tally, w, seed, i, in, false, false)
		ref.wall += time.Duration(times["run_s"][0] * float64(time.Second))
		if ok {
			ref.outcomes = append(ref.outcomes, o)
		}
		runTracedSession(r, w, seed, i, in, &tp)
	}
	r.tr.Root().End()
	t.add(ref.tally)
	t.add(tp.tally)
	checkSame(t, "traced run vs pkg/dk", ref.outcomes, tp.outcomes)

	jsonl := r.tr.MarshalJSONL()
	if err := os.WriteFile(base+".trace.jsonl", jsonl, 0o644); err != nil {
		return nil, err
	}
	data, err := trace.DecodeBytes(jsonl)
	if err != nil {
		return nil, err
	}
	t.attempted++
	switch err := data.Validate(); {
	case err != nil:
		t.fail("trace: %v", err)
	case data.DroppedSpans+data.DroppedEvents+data.Skipped > 0:
		t.fail("trace: %d dropped spans, %d dropped events, %d bad lines", data.DroppedSpans, data.DroppedEvents, data.Skipped)
	default:
		var tl bytes.Buffer
		if err := data.WriteTimeline(&tl); err != nil {
			return nil, err
		}
		os.Stderr.Write(tl.Bytes())
		if err := os.WriteFile(base+".timeline.txt", tl.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}
	m := layerMetrics(r, tp, data)
	// What the layers do not account for is the facade's own work: the
	// pipeline executor, session cache and wire types of pkg/dk. The
	// traced run's span and runtime/metrics bookkeeping lengthens the
	// layer spans a little, so the difference is clamped at 0, and the
	// traced run's own wall time is reported next to it.
	var tracedWall float64
	for _, s := range data.Spans {
		if s.Name == "session" {
			tracedWall += (time.Duration(s.DurUS) * time.Microsecond).Seconds()
		}
	}
	m["pipeline.unattributed_s"] = metric{max(0, ref.wall.Seconds()-coveredSeconds(data)), "s"}
	m["pipeline.traced_run_s"] = metric{tracedWall, "s"}
	m["run_s"] = metric{ref.wall.Seconds(), "s"}
	return m, nil
}

// pick selects the named metrics; a name missing from all reads 0.
func pick(all map[string]metric, names []metricDef) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, d := range names {
		m, ok := all[d.name]
		if !ok {
			m = metric{0, d.unit}
		}
		out[d.name] = m
	}
	return out
}

// targetResiduals returns the D_d of every targeting replica to its
// source, session by session.
func targetResiduals(w workload, outcomes []outcome) []float64 {
	var out []float64
	for _, o := range outcomes {
		for k, st := range comparedSteps(w) {
			if st.method == "targeting" {
				out = append(out, o.distances[k]...)
			}
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
