package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/pkg/dkapi"
)

// exposition is a minimal parse of the Prometheus text format: the TYPE
// of each family and the value of each sample line, keyed by the full
// series name including its label set ("dk_http_requests_total{route=\"...\"}").
type exposition struct {
	types   map[string]string
	samples map[string]float64
	order   []string // family names in emission order
}

// parseExposition parses format version 0.0.4 strictly enough to catch
// real mistakes: every sample must belong to a family whose # TYPE line
// already appeared, HELP must precede TYPE, and values must be valid
// floats.
func parseExposition(t *testing.T, body string) *exposition {
	t.Helper()
	exp := &exposition{types: map[string]string{}, samples: map[string]float64{}}
	helped := map[string]bool{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			helped[parts[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, typ := parts[0], parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE for %s before its HELP", ln+1, name)
			}
			if _, dup := exp.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			exp.types[name] = typ
			exp.order = append(exp.order, name)
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: no value separator: %q", ln+1, line)
			}
			series, raw := line[:sp], line[sp+1:]
			name := series
			if b := strings.IndexByte(series, '{'); b >= 0 {
				if !strings.HasSuffix(series, "}") {
					t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
				}
				name = series[:b]
			}
			if _, ok := exp.types[name]; !ok {
				// Histogram families emit _bucket/_sum/_count samples
				// under the family's single TYPE line.
				base := name
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if b, ok := strings.CutSuffix(name, suffix); ok {
						base = b
						break
					}
				}
				if exp.types[base] != "histogram" {
					t.Fatalf("line %d: sample %s has no preceding TYPE", ln+1, series)
				}
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, raw, err)
			}
			if _, dup := exp.samples[series]; dup {
				t.Fatalf("line %d: duplicate series %s", ln+1, series)
			}
			exp.samples[series] = v
		}
	}
	return exp
}

// scrape GETs /metrics and parses the body.
func scrape(t *testing.T, base string) *exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d; body: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition format 0.0.4", ct)
	}
	return parseExposition(t, string(body))
}

// TestMetricsExposition drives traffic through the server and checks the
// scrape against /v1/stats: every route, phase, cache, and job counter
// must appear as a well-formed family with the right type and value.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// Traffic: one extract (route + cache counters), one pipeline with a
	// generate step (phase + job counters), one 404 (error counter).
	var er ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, &er)
	var acc dkapi.JobAccepted
	postJSON(t, ts.URL+"/v1/pipelines", "application/json", fmt.Sprintf(`{
		"steps": [
			{"id": "p", "op": "extract", "d": 2, "source": {"hash": %q}},
			{"id": "g", "op": "generate", "d": 2, "source": {"hash": %q}, "replicas": 1, "seed": 7}
		]}`, er.Graph.Hash, er.Graph.Hash), http.StatusAccepted, &acc)
	pollJob(t, ts.URL, acc.JobID)
	if resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("probe 404 got %d", resp.StatusCode)
		}
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	exp := scrape(t, ts.URL)

	// Fixed families, with the type the semantics demand.
	wantTypes := map[string]string{
		"dk_build_info":              "gauge",
		"dk_uptime_seconds":          "gauge",
		"dk_workers":                 "gauge",
		"dk_http_requests_total":     "counter",
		"dk_cache_hits_total":        "counter",
		"dk_cache_entries":           "gauge",
		"dk_jobs_completed_total":    "counter",
		"dk_jobs_queued":             "gauge",
		"dk_pipeline_phase_ms_total": "counter",
	}
	for name, typ := range wantTypes {
		if got := exp.types[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}

	// Every route in /v1/stats appears, with matching counts. Both
	// snapshots count a request only after its handler returns, so the
	// stats call itself and the scrape are each invisible to their own
	// snapshot: those two routes may legitimately read one apart.
	for route, rs := range stats.Routes {
		series := fmt.Sprintf("dk_http_requests_total{route=%q}", route)
		got, ok := exp.samples[series]
		if !ok {
			t.Errorf("route %q missing from dk_http_requests_total", route)
			continue
		}
		want := float64(rs.Count)
		selfCounting := route == "GET /metrics" || route == "GET /v1/stats"
		if got != want && !(selfCounting && got == want+1) {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
		eSeries := fmt.Sprintf("dk_http_request_errors_total{route=%q}", route)
		if ev := exp.samples[eSeries]; ev != float64(rs.Errors) {
			t.Errorf("%s = %g, want %d", eSeries, ev, rs.Errors)
		}
	}
	if v := exp.samples[`dk_http_request_errors_total{route="GET /v1/jobs/{id}"}`]; v != 1 {
		t.Errorf("job-lookup 404 not counted as route error: got %g", v)
	}

	// Every phase observed by /v1/stats appears in the phase families.
	if len(stats.Phases) == 0 {
		t.Fatal("no phases in /v1/stats after a pipeline run")
	}
	for phase, ps := range stats.Phases {
		series := fmt.Sprintf("dk_pipeline_phase_runs_total{phase=%q}", phase)
		if got := exp.samples[series]; got != float64(ps.Count) {
			t.Errorf("%s = %g, want %d", series, got, ps.Count)
		}
	}

	// Cache and job counters line up with the stats snapshot.
	for series, want := range map[string]float64{
		"dk_cache_hits_total":        float64(stats.Cache.Hits),
		"dk_cache_misses_total":      float64(stats.Cache.Misses),
		"dk_cache_extractions_total": float64(stats.Cache.Extractions),
		"dk_jobs_completed_total":    float64(stats.Jobs.Completed),
		"dk_jobs_failed_total":       float64(stats.Jobs.Failed),
		"dk_jobs_rejected_total":     float64(stats.Jobs.Rejected),
	} {
		if got := exp.samples[series]; got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	for _, class := range []string{"interactive", "batch"} {
		if _, ok := exp.samples[fmt.Sprintf("dk_jobs_queued{class=%q}", class)]; !ok {
			t.Errorf("dk_jobs_queued missing class %q", class)
		}
	}
	if _, ok := exp.samples[fmt.Sprintf("dk_build_info{go_version=%q,version=%q}", runtime.Version(), dkapi.Version)]; !ok {
		t.Error("dk_build_info missing the go_version/version labels")
	}
	if stats.GoVersion != runtime.Version() {
		t.Errorf("stats go_version %q, want %q", stats.GoVersion, runtime.Version())
	}

	// No limiter, no store: those families must be absent entirely.
	for _, name := range []string{"dk_ratelimit_allowed_total", "dk_store_graphs"} {
		if _, ok := exp.types[name]; ok {
			t.Errorf("family %s present without its subsystem configured", name)
		}
	}
}

// TestMetricsHistograms checks the two latency histogram families:
// every label's bucket series must be monotonically non-decreasing in
// le, the +Inf bucket must equal _count, and _sum must be consistent
// with having observed _count values.
func TestMetricsHistograms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, nil)
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, nil)
	exp := scrape(t, ts.URL)

	for _, fam := range []struct{ name, label, series string }{
		{"dk_http_request_seconds", "route", "POST /v1/extract"},
		{"dk_pipeline_phase_seconds", "phase", "extract.extract"},
	} {
		if got := exp.types[fam.name]; got != "histogram" {
			t.Fatalf("family %s: type %q, want histogram", fam.name, got)
		}
		count, ok := exp.samples[fmt.Sprintf("%s_count{%s=%q}", fam.name, fam.label, fam.series)]
		if !ok || count < 1 {
			t.Fatalf("%s: no observations for %s", fam.name, fam.series)
		}
		// Walk the bounds in ascending order: cumulative counts must
		// never decrease, and the +Inf bucket must equal _count.
		prev := -1.0
		for _, b := range latencyBuckets {
			series := fmt.Sprintf("%s_bucket{%s=%q,le=%q}",
				fam.name, fam.label, fam.series, strconv.FormatFloat(b, 'g', -1, 64))
			v, ok := exp.samples[series]
			if !ok {
				t.Fatalf("%s: missing bucket %s", fam.name, series)
			}
			if v < prev {
				t.Errorf("%s: bucket series not monotonic at %s (%g < %g)", fam.name, series, v, prev)
			}
			prev = v
		}
		inf, ok := exp.samples[fmt.Sprintf(`%s_bucket{%s=%q,le="+Inf"}`, fam.name, fam.label, fam.series)]
		if !ok {
			t.Fatalf("%s: no +Inf bucket for %s", fam.name, fam.series)
		}
		if inf != count || inf < prev {
			t.Errorf("%s: +Inf bucket %g (count %g, last finite %g)", fam.name, inf, count, prev)
		}
		sum := exp.samples[fmt.Sprintf("%s_sum{%s=%q}", fam.name, fam.label, fam.series)]
		if sum < 0 {
			t.Errorf("%s: negative sum %g", fam.name, sum)
		}
	}
}

// TestMetricsMonotonic scrapes twice around more traffic: counters never
// go backwards, and the family set stays stable.
func TestMetricsMonotonic(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/extract?d=1", "text/plain", pawEdges, http.StatusOK, nil)
	first := scrape(t, ts.URL)
	postJSON(t, ts.URL+"/v1/extract?d=1", "text/plain", pawEdges, http.StatusOK, nil)
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, nil)
	second := scrape(t, ts.URL)

	for series, v1 := range first.samples {
		name := series
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name = series[:b]
		}
		if first.types[name] != "counter" {
			continue
		}
		v2, ok := second.samples[series]
		if !ok {
			t.Errorf("counter series %s vanished between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}
	extracts := `dk_http_requests_total{route="POST /v1/extract"}`
	if second.samples[extracts] != first.samples[extracts]+2 {
		t.Errorf("extract count %g -> %g, want +2", first.samples[extracts], second.samples[extracts])
	}
}
