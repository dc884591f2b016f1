package service

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/pkg/dkapi"
)

// promWriter renders the Prometheus text exposition format (version
// 0.0.4): one # HELP and # TYPE line per family, then its samples.
// Families and label sets are emitted in sorted order so two scrapes of
// the same state are byte-identical — which is also what makes the
// exposition testable.
type promWriter struct {
	sb strings.Builder
}

// family opens a metric family. Call the sample methods immediately
// after; the exposition format requires a family's samples to follow
// its TYPE line.
func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(&p.sb, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&p.sb, "# TYPE %s %s\n", name, typ)
}

// sample emits one sample with optional labels (pairs of key, value).
func (p *promWriter) sample(name string, value float64, labels ...string) {
	p.sb.WriteString(name)
	if len(labels) > 0 {
		p.sb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				p.sb.WriteByte(',')
			}
			fmt.Fprintf(&p.sb, "%s=%q", labels[i], escapeLabel(labels[i+1]))
		}
		p.sb.WriteByte('}')
	}
	p.sb.WriteByte(' ')
	p.sb.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
	p.sb.WriteByte('\n')
}

// escapeLabel escapes a label value per the exposition format. %q above
// already escapes double quotes and backslashes the same way Go source
// does, which matches the format; newlines must become \n explicitly.
func escapeLabel(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labeledSeries emits one sorted sample set for a map keyed by a label
// value.
func labeledSeries[T any](p *promWriter, name, label string, m map[string]T, value func(T) float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.sample(name, value(m[k]), label, k)
	}
}

// handleMetrics implements GET /metrics: the same counters /v1/stats
// serves, in Prometheus exposition format — route traffic, pipeline
// phase timings, cache and job-engine counters, rate-limiter and
// artifact-store state. Everything cumulative is a counter; point-in-
// time values are gauges. The route label carries the mux pattern
// ("POST /v1/extract"), matching the routes table of /v1/stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := &promWriter{}

	p.family("dk_build_info", "Build metadata (value is always 1).", "gauge")
	p.sample("dk_build_info", 1, "go_version", runtime.Version(), "version", dkapi.Version)
	p.family("dk_uptime_seconds", "Seconds since the server started.", "gauge")
	p.sample("dk_uptime_seconds", time.Since(s.started).Seconds())
	p.family("dk_workers", "Process-wide parallel worker budget.", "gauge")
	p.sample("dk_workers", float64(parallel.Workers()))

	routes := s.routes.Snapshot()
	p.family("dk_http_requests_total", "Requests handled, by route pattern.", "counter")
	labeledSeries(p, "dk_http_requests_total", "route", routes, func(rs dkapi.RouteStat) float64 { return float64(rs.Count) })
	p.family("dk_http_request_errors_total", "Error responses (status >= 400, excluding 429), by route.", "counter")
	labeledSeries(p, "dk_http_request_errors_total", "route", routes, func(rs dkapi.RouteStat) float64 { return float64(rs.Errors) })
	p.family("dk_http_requests_throttled_total", "429 backpressure responses, by route.", "counter")
	labeledSeries(p, "dk_http_requests_throttled_total", "route", routes, func(rs dkapi.RouteStat) float64 { return float64(rs.Throttled) })
	p.family("dk_http_request_duration_ms_total", "Cumulative request wall-clock milliseconds, by route.", "counter")
	labeledSeries(p, "dk_http_request_duration_ms_total", "route", routes, func(rs dkapi.RouteStat) float64 { return rs.TotalMS })
	p.family("dk_http_response_bytes_total", "Response bytes sent, by route.", "counter")
	labeledSeries(p, "dk_http_response_bytes_total", "route", routes, func(rs dkapi.RouteStat) float64 { return float64(rs.BytesSent) })
	p.family("dk_http_in_flight", "Requests currently executing, by route.", "gauge")
	labeledSeries(p, "dk_http_in_flight", "route", routes, func(rs dkapi.RouteStat) float64 { return float64(rs.InFlight) })
	s.httpHist.emit(p, "dk_http_request_seconds", "HTTP request latency in seconds, by route pattern.", "route")

	phases := s.phases.Snapshot()
	p.family("dk_pipeline_phase_runs_total", "Pipeline phase executions, by op.phase.", "counter")
	labeledSeries(p, "dk_pipeline_phase_runs_total", "phase", phases, func(ps dkapi.PhaseStat) float64 { return float64(ps.Count) })
	p.family("dk_pipeline_phase_ms_total", "Cumulative pipeline phase wall-clock milliseconds, by op.phase.", "counter")
	labeledSeries(p, "dk_pipeline_phase_ms_total", "phase", phases, func(ps dkapi.PhaseStat) float64 { return ps.TotalMS })
	p.family("dk_pipeline_phase_max_ms", "Slowest single observation of each pipeline phase.", "gauge")
	labeledSeries(p, "dk_pipeline_phase_max_ms", "phase", phases, func(ps dkapi.PhaseStat) float64 { return ps.MaxMS })
	s.phaseHist.emit(p, "dk_pipeline_phase_seconds", "Pipeline phase latency in seconds, by op.phase.", "phase")

	scen := s.scenarios.Snapshot()
	p.family("dk_scenario_runs_total", "Netsim scenario executions, by kind.", "counter")
	labeledSeries(p, "dk_scenario_runs_total", "kind", scen, func(ps dkapi.PhaseStat) float64 { return float64(ps.Count) })
	p.family("dk_scenario_ms_total", "Cumulative netsim scenario wall-clock milliseconds, by kind.", "counter")
	labeledSeries(p, "dk_scenario_ms_total", "kind", scen, func(ps dkapi.PhaseStat) float64 { return ps.TotalMS })
	p.family("dk_scenario_max_ms", "Slowest single run of each scenario kind.", "gauge")
	labeledSeries(p, "dk_scenario_max_ms", "kind", scen, func(ps dkapi.PhaseStat) float64 { return ps.MaxMS })
	s.scenHist.emit(p, "dk_scenario_seconds", "Netsim scenario latency in seconds, by kind.", "kind")

	cs := s.cache.Stats()
	p.family("dk_cache_entries", "Graphs resident in the memory cache tier.", "gauge")
	p.sample("dk_cache_entries", float64(cs.Entries))
	p.family("dk_cache_max_entries", "Memory cache tier capacity.", "gauge")
	p.sample("dk_cache_max_entries", float64(cs.MaxEntries))
	p.family("dk_cache_hits_total", "Intern calls that found an existing entry.", "counter")
	p.sample("dk_cache_hits_total", float64(cs.Hits))
	p.family("dk_cache_misses_total", "Intern calls that created a new entry.", "counter")
	p.sample("dk_cache_misses_total", float64(cs.Misses))
	p.family("dk_cache_evictions_total", "Entries evicted from the memory tier.", "counter")
	p.sample("dk_cache_evictions_total", float64(cs.Evictions))
	p.family("dk_cache_extractions_total", "Actual dK-extraction runs (cache misses on profiles).", "counter")
	p.sample("dk_cache_extractions_total", float64(cs.Extractions))
	p.family("dk_cache_disk_hits_total", "Disk-tier reads that found the artifact.", "counter")
	p.sample("dk_cache_disk_hits_total", float64(cs.DiskHits))
	p.family("dk_cache_disk_misses_total", "Disk-tier reads that found nothing.", "counter")
	p.sample("dk_cache_disk_misses_total", float64(cs.DiskMisses))
	p.family("dk_cache_disk_graph_writes_total", "Graph artifacts written through to disk.", "counter")
	p.sample("dk_cache_disk_graph_writes_total", float64(cs.DiskGraphWrites))
	p.family("dk_cache_disk_profile_writes_total", "Profile artifacts written through to disk.", "counter")
	p.sample("dk_cache_disk_profile_writes_total", float64(cs.DiskProfileWrites))

	js := s.jobs.Stats()
	p.family("dk_jobs_runners", "Job-engine runner pool size.", "gauge")
	p.sample("dk_jobs_runners", float64(js.Runners))
	p.family("dk_jobs_queued", "Jobs waiting to run, by priority class.", "gauge")
	p.sample("dk_jobs_queued", float64(js.QueuedInteractive), "class", string(ClassInteractive))
	p.sample("dk_jobs_queued", float64(js.QueuedBatch), "class", string(ClassBatch))
	p.family("dk_jobs_running", "Jobs currently executing.", "gauge")
	p.sample("dk_jobs_running", float64(js.Running))
	p.family("dk_jobs_max_running", "High-water mark of concurrently executing jobs.", "gauge")
	p.sample("dk_jobs_max_running", float64(js.MaxRunning))
	p.family("dk_jobs_completed_total", "Jobs that finished successfully.", "counter")
	p.sample("dk_jobs_completed_total", float64(js.Completed))
	p.family("dk_jobs_failed_total", "Jobs that reached the failed state.", "counter")
	p.sample("dk_jobs_failed_total", float64(js.Failed))
	p.family("dk_jobs_rejected_total", "Submissions rejected by the bounded queue (not failures).", "counter")
	p.sample("dk_jobs_rejected_total", float64(js.Rejected))
	p.family("dk_jobs_recovered_total", "Jobs re-queued from the journal at startup.", "counter")
	p.sample("dk_jobs_recovered_total", float64(js.Recovered))

	if s.limiter != nil {
		rl := s.limiter.Stats()
		p.family("dk_ratelimit_allowed_total", "Requests admitted by the per-client rate limiter.", "counter")
		p.sample("dk_ratelimit_allowed_total", float64(rl.Allowed))
		p.family("dk_ratelimit_limited_total", "Requests rejected with 429 rate_limited.", "counter")
		p.sample("dk_ratelimit_limited_total", float64(rl.Limited))
		p.family("dk_ratelimit_clients", "Client buckets currently tracked.", "gauge")
		p.sample("dk_ratelimit_clients", float64(rl.Clients))
	}

	if s.store != nil {
		ss := s.store.Stats()
		p.family("dk_store_graphs", "Graph artifacts on disk.", "gauge")
		p.sample("dk_store_graphs", float64(ss.Graphs))
		p.family("dk_store_profiles", "Profile artifacts on disk.", "gauge")
		p.sample("dk_store_profiles", float64(ss.Profiles))
		p.family("dk_store_graph_bytes", "Bytes of graph artifacts on disk.", "gauge")
		p.sample("dk_store_graph_bytes", float64(ss.GraphBytes))
		p.family("dk_store_profile_bytes", "Bytes of profile artifacts on disk.", "gauge")
		p.sample("dk_store_profile_bytes", float64(ss.ProfileBytes))
		p.family("dk_store_graph_reads_total", "Graph artifact reads.", "counter")
		p.sample("dk_store_graph_reads_total", float64(ss.GraphReads))
		p.family("dk_store_graph_writes_total", "Graph artifact writes.", "counter")
		p.sample("dk_store_graph_writes_total", float64(ss.GraphWrites))
		p.family("dk_store_profile_reads_total", "Profile artifact reads.", "counter")
		p.sample("dk_store_profile_reads_total", float64(ss.ProfileReads))
		p.family("dk_store_profile_writes_total", "Profile artifact writes.", "counter")
		p.sample("dk_store_profile_writes_total", float64(ss.ProfileWrites))
		p.family("dk_store_read_errors_total", "Artifact reads that failed verification.", "counter")
		p.sample("dk_store_read_errors_total", float64(ss.ReadErrors))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(p.sb.String()))
}
