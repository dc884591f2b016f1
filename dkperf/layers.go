package main

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/trace"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are the --trace 0 metrics: the ones every workload's
// run has. Per-operation times that only some workloads have (target_s,
// construct_s, compare_s, simulate_s, target_residual) go to the report
// file only.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"ingest_s", "s"},
	{"extract_s", "s"},
	{"randomize_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are the --trace 1 metrics. A "<layer>.<call>_s" metric
// is the summed self time of that call's spans: its duration minus the
// part its child spans cover. Calls in a replica fan-out run on all
// workers at once, so their sums count busy time, not wall time.
var perLayerMetrics = []metricDef{
	{"graph.parse_s", "s"},
	{"graph.parse_alloc_mb", "MB"},
	{"graph.csr_s", "s"},
	{"graph.canonical_s", "s"},
	{"graph.hash_s", "s"},
	{"graph.gcc_s", "s"},
	{"graph.static_s", "s"},
	{"dk.extract_s", "s"},
	{"dk.distance_s", "s"},
	{"subgraphs.count_s", "s"},
	{"subgraphs.count_alloc_mb", "MB"},
	{"subgraphs.classes", "count"},
	{"subgraphs.census_keys", "count"},
	{"generate.rewire_s", "s"},
	{"generate.rewire_attempts", "count"},
	{"generate.rewire_accepted", "count"},
	{"generate.rewire_accept_ratio", "ratio"},
	{"generate.rewire_ns_per_attempt", "ns"},
	{"generate.rewire_alloc_mb", "MB"},
	{"generate.pseudograph_s", "s"},
	{"generate.matching_s", "s"},
	{"generate.construct_fallbacks", "count"},
	{"generate.target_s", "s"},
	{"generate.target_attempts", "count"},
	{"generate.target_accepted", "count"},
	{"generate.target_ns_per_attempt", "ns"},
	{"generate.target_alloc_mb", "MB"},
	{"generate.target_initial_d", "D_d"},
	{"generate.target_final_d", "D_d"},
	{"generate.target_stop_zero", "count"},
	{"generate.target_stop_patience", "count"},
	{"generate.target_stop_max_attempts", "count"},
	{"metrics.distances_s", "s"},
	{"metrics.bfs_sources", "count"},
	{"metrics.clustering_s", "s"},
	{"metrics.assortativity_s", "s"},
	{"metrics.likelihood_s", "s"},
	{"metrics.s2_s", "s"},
	{"spectral.extremes_s", "s"},
	{"scenario.robustness_s", "s"},
	{"scenario.epidemic_s", "s"},
	{"scenario.routing_s", "s"},
	{"parallel.replica_busy_s", "s"},
	{"parallel.efficiency", "ratio"},
	{"parallel.straggler_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"pipeline.unattributed_s", "s"},
	{"pipeline.traced_run_s", "s"},
}

// runtimeSamples are read before and after each traced session: bytes
// allocated, and CPU seconds spent in GC, in total, and idle.
var runtimeSamples = []string{
	heapAllocs,
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

const mib = 1 << 20

// layerMetrics derives the per-layer metrics of a traced run from its
// spans, the recorder's allocations and counters, and its runtime/metrics
// deltas.
func layerMetrics(r *recorder, tp tracedPass, d *trace.Data) map[string]metric {
	m := map[string]metric{}
	for name, s := range selfSeconds(d) {
		if strings.Contains(name, ".") {
			m[name+"_s"] = metric{s, "s"}
		}
	}
	for name, v := range r.count {
		m[name] = metric{v, "count"}
	}
	sec := func(name string) float64 { return m[name].Value }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["graph.parse_alloc_mb"] = metric{r.alloc["graph.parse"] / mib, "MB"}
	m["subgraphs.count_alloc_mb"] = metric{r.alloc["subgraphs.count"] / mib, "MB"}
	m["generate.rewire_alloc_mb"] = metric{r.alloc["fanout.randomize"] / mib, "MB"}
	m["generate.target_alloc_mb"] = metric{r.alloc["fanout.targeting"] / mib, "MB"}

	attempts, accepted := sec("generate.rewire_attempts"), sec("generate.rewire_accepted")
	m["generate.rewire_accept_ratio"] = metric{ratio(accepted, attempts), "ratio"}
	m["generate.rewire_ns_per_attempt"] = metric{ratio(sec("generate.rewire_s")*1e9, attempts), "ns"}
	m["generate.target_ns_per_attempt"] = metric{ratio(sec("generate.target_s")*1e9, sec("generate.target_attempts")), "ns"}
	replicas := sec("generate.target_replicas")
	m["generate.target_initial_d"] = metric{ratio(sec("generate.target_initial_d"), replicas), "D_d"}
	m["generate.target_final_d"] = metric{ratio(sec("generate.target_final_d"), replicas), "D_d"}

	// Parallel: busy is the summed replica time, efficiency divides it by
	// the wall time each fan-out had on all workers, and the straggler
	// time is how long each fan-out's slowest replica ran past the median.
	var busy, capacity, straggler float64
	workers := float64(parallel.Workers())
	for _, f := range tp.fanOuts {
		secs := make([]float64, len(f.busy))
		for i, b := range f.busy {
			secs[i] = b.Seconds()
			busy += secs[i]
		}
		capacity += f.wall.Seconds() * workers
		straggler += slices.Max(secs) - median(secs)
	}
	m["parallel.replica_busy_s"] = metric{busy, "s"}
	m["parallel.efficiency"] = metric{ratio(busy, capacity), "ratio"}
	m["parallel.straggler_s"] = metric{straggler, "s"}

	rt := tp.runtime
	m["runtime.alloc_mb"] = metric{rt[0] / mib, "MB"}
	m["runtime.gc_cpu_frac"] = metric{ratio(rt[1], rt[2]-rt[3]), "ratio"}
	return m
}

// selfSeconds sums, per span name, each span's duration minus the union
// of the intervals its children cover.
func selfSeconds(d *trace.Data) map[string]float64 {
	kids := map[int][]trace.Record{}
	for _, s := range d.Spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range d.Spans {
		self := s.DurUS - unionUS(kids[s.ID])
		out[s.Name] += time.Duration(max(self, 0) * int64(time.Microsecond)).Seconds()
	}
	return out
}

// coveredSeconds is the wall time during which at least one layer span
// ("<layer>.<call>") was open: the part of the traced run the layers
// account for.
func coveredSeconds(d *trace.Data) float64 {
	var layers []trace.Record
	for _, s := range d.Spans {
		if strings.Contains(s.Name, ".") {
			layers = append(layers, s)
		}
	}
	return time.Duration(unionUS(layers) * int64(time.Microsecond)).Seconds()
}

// unionUS is the length of the union of the spans' intervals.
func unionUS(spans []trace.Record) int64 {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.StartUS, s.StartUS + s.DurUS}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, end int64 = 0, -1
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
