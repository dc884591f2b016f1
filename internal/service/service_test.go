package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// newTestServer builds a Server + httptest.Server pair and registers
// cleanup for both.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// getJSON GETs url and decodes the JSON body into out, asserting status.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v; body: %s", url, err, body)
		}
	}
}

// postJSON POSTs body (JSON-encoded if not a string) and decodes the
// response, asserting status.
func postJSON(t *testing.T, url string, contentType string, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d; body: %s", url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode: %v; body: %s", url, err, raw)
		}
	}
}

// pollJob polls /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var view JobView
		getJSON(t, base+"/v1/jobs/"+id, http.StatusOK, &view)
		if view.Status == JobDone || view.Status == JobFailed {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const pawEdges = "# the paper's worked example\n0 1\n1 2\n0 2\n2 3\n"

func TestExtractProfileEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=3", "text/plain", pawEdges, http.StatusOK, &resp)

	if resp.Graph.N != 4 || resp.Graph.M != 4 {
		t.Fatalf("graph info n=%d m=%d, want 4/4", resp.Graph.N, resp.Graph.M)
	}
	if !strings.HasPrefix(resp.Graph.Hash, "sha256:") {
		t.Fatalf("hash %q lacks sha256: prefix", resp.Graph.Hash)
	}
	if resp.Cached {
		t.Fatal("first extract reported cached=true")
	}
	p := resp.Profile
	if p == nil || p.D != 3 {
		t.Fatalf("profile = %+v, want depth 3", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("served profile fails inclusion identities: %v", err)
	}
	// Paw graph ground truth: degrees {1:1, 2:2, 3:1}, one triangle.
	if p.Degrees.Count[3] != 1 || p.Degrees.Count[1] != 1 || p.Degrees.Count[2] != 2 {
		t.Fatalf("degree distribution %+v wrong for paw", p.Degrees.Count)
	}
	if got := p.Census.TotalTriangles(); got != 1 {
		t.Fatalf("triangles = %d, want 1", got)
	}
}

func TestExtractCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var first ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, &first)
	if first.Cached {
		t.Fatal("first request cached=true")
	}
	stats := srv.CacheStats()
	if stats.Misses != 1 || stats.Extractions != 1 {
		t.Fatalf("after first extract: %+v, want 1 miss / 1 extraction", stats)
	}

	// The same topology in a different byte form: reordered lines,
	// different comments/whitespace. Must hash to the same entry and
	// skip recomputation.
	reordered := "2 3\n0 2\n   1    2\n# same paw, different bytes\n0 1\n"
	var second ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", reordered, http.StatusOK, &second)
	if second.Graph.Hash != first.Graph.Hash {
		t.Fatalf("reordered upload hashed to %s, want %s", second.Graph.Hash, first.Graph.Hash)
	}
	if !second.Cached {
		t.Fatal("second extract of the same topology reported cached=false")
	}
	stats = srv.CacheStats()
	if stats.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", stats.Hits)
	}
	if stats.Extractions != 1 {
		t.Fatalf("extractions = %d after repeat request, want 1 (no recomputation)", stats.Extractions)
	}

	// A shallower depth is also a hit via profile restriction.
	var third ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=1", "text/plain", pawEdges, http.StatusOK, &third)
	if !third.Cached {
		t.Fatal("d=1 extract after d=2 reported cached=false")
	}
	if srv.CacheStats().Extractions != 1 {
		t.Fatalf("restricting a deeper profile must not re-extract; stats %+v", srv.CacheStats())
	}
}

func TestExtractGenerateCompareEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	// 1. Fetch a built-in dataset and extract its profile.
	resp, err := http.Get(ts.URL + "/v1/datasets/petersen")
	if err != nil {
		t.Fatal(err)
	}
	edges, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset fetch: %d: %s", resp.StatusCode, edges)
	}
	var extract ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2&metrics=1", "text/plain", string(edges), http.StatusOK, &extract)
	if extract.Graph.N != 10 || extract.Graph.M != 15 {
		t.Fatalf("petersen info = %+v, want n=10 m=15", extract.Graph)
	}
	if extract.Summary == nil || extract.Summary.AvgDegree != 3 {
		t.Fatalf("summary = %+v, want k̄=3", extract.Summary)
	}

	// 2. Generate a 1K ensemble by hash reference (no re-upload).
	genReq := fmt.Sprintf(`{"source":{"hash":%q},"d":1,"method":"matching","replicas":3,"seed":7,"compare":true}`, extract.Graph.Hash)
	var accepted GenerateAccepted
	postJSON(t, ts.URL+"/v1/generate", "application/json", genReq, http.StatusAccepted, &accepted)
	if accepted.JobID == "" || accepted.StatusURL == "" {
		t.Fatalf("bad 202 body: %+v", accepted)
	}

	view := pollJob(t, ts.URL, accepted.JobID)
	if view.Status != JobDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	raw, _ := json.Marshal(view.Result)
	var result GenerateResult
	if err := json.Unmarshal(raw, &result); err != nil {
		t.Fatal(err)
	}
	if len(result.Replicas) != 3 {
		t.Fatalf("replica count %d, want 3", len(result.Replicas))
	}
	for _, ri := range result.Replicas {
		// Matching realizes the degree distribution exactly: every
		// replica of the 3-regular Petersen graph is 3-regular.
		if ri.N != 10 || ri.M != 15 {
			t.Fatalf("replica %d: n=%d m=%d, want 10/15", ri.Index, ri.N, ri.M)
		}
		if ri.Distance == nil || *ri.Distance != 0 {
			t.Fatalf("replica %d: D_1 = %v, want exact 0", ri.Index, ri.Distance)
		}
	}

	// 3. Stream the replica edge lists and re-parse the first one.
	if view.ResultURL == "" {
		t.Fatal("done generate job has no result_url")
	}
	sresp, err := http.Get(ts.URL + view.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("result stream: %d: %s", sresp.StatusCode, streamed)
	}
	parts := strings.Split(string(streamed), "# replica ")
	if len(parts) != 4 { // leading empty + 3 replicas
		t.Fatalf("streamed %d replica sections, want 3", len(parts)-1)
	}
	replica0 := parts[1][strings.Index(parts[1], "\n")+1:]
	g0, _, err := graph.ReadEdgeList(strings.NewReader(replica0))
	if err != nil {
		t.Fatalf("streamed replica 0 does not re-parse: %v", err)
	}
	if g0.N() != 10 || g0.M() != 15 {
		t.Fatalf("re-parsed replica: n=%d m=%d, want 10/15", g0.N(), g0.M())
	}

	// 4. Compare original (by hash) against the streamed replica.
	cmpReq := fmt.Sprintf(`{"a":{"hash":%q},"b":{"edges":%q},"d":1}`, extract.Graph.Hash, replica0)
	var cmp CompareResponse
	postJSON(t, ts.URL+"/v1/compare", "application/json", cmpReq, http.StatusOK, &cmp)
	if len(cmp.Distances) != 2 {
		t.Fatalf("distances %+v, want entries for d=0,1", cmp.Distances)
	}
	for _, de := range cmp.Distances {
		if de.Value != 0 {
			t.Fatalf("D_%d = %v between a 1K-exact replica and its source, want 0", de.D, de.Value)
		}
	}
	if cmp.SummaryA.AvgDegree != 3 || cmp.SummaryB.AvgDegree != 3 {
		t.Fatalf("summaries %+v / %+v, want k̄=3 on both sides", cmp.SummaryA, cmp.SummaryB)
	}
}

func TestGenerateJobsRespectWorkerBudget(t *testing.T) {
	parallel.SetWorkers(1)
	t.Cleanup(func() { parallel.SetWorkers(0) })

	// JobRunners defaults to the worker budget — one runner here.
	srv, ts := newTestServer(t, Options{})
	if got := srv.JobStats().Runners; got != 1 {
		t.Fatalf("runners = %d, want the -workers budget of 1", got)
	}

	var extract ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2&dataset=hot", "text/plain", "", http.StatusOK, &extract)

	ids := make([]string, 4)
	for i := range ids {
		req := fmt.Sprintf(`{"source":{"hash":%q},"d":2,"method":"randomize","replicas":2,"seed":%d}`, extract.Graph.Hash, i)
		var accepted GenerateAccepted
		postJSON(t, ts.URL+"/v1/generate", "application/json", req, http.StatusAccepted, &accepted)
		ids[i] = accepted.JobID
	}
	for _, id := range ids {
		if view := pollJob(t, ts.URL, id); view.Status != JobDone {
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
	}
	if hw := srv.JobStats().MaxRunning; hw > 1 {
		t.Fatalf("max concurrent jobs = %d with a worker budget of 1", hw)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Jobs.Completed != 4 {
		t.Fatalf("completed jobs = %d, want 4", stats.Jobs.Completed)
	}
	if stats.Workers != 1 {
		t.Fatalf("stats workers = %d, want 1", stats.Workers)
	}
}

func TestGenerateDeterministicAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	fetch := func() string {
		req := `{"source":{"dataset":"petersen"},"d":1,"method":"matching","replicas":2,"seed":11}`
		var accepted GenerateAccepted
		postJSON(t, ts.URL+"/v1/generate", "application/json", req, http.StatusAccepted, &accepted)
		view := pollJob(t, ts.URL, accepted.JobID)
		if view.Status != JobDone {
			t.Fatalf("job failed: %s", view.Error)
		}
		resp, err := http.Get(ts.URL + view.ResultURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if a, b := fetch(), fetch(); a != b {
		t.Fatal("same (seed, replicas) produced different streamed ensembles")
	}
}

// TestEmptyInlineEdgesRejected checks that an inline edge list with no
// edges is refused on every route that takes a graph reference, the way
// an empty upload to /v1/extract is, instead of being interned as a
// 0-node graph. No job may be enqueued for it.
func TestEmptyInlineEdgesRejected(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	const empty = `{"edges":"# comment\n"}`
	for _, tc := range []struct{ route, body string }{
		{"/v1/compare", `{"a":` + empty + `,"b":{"dataset":"paw"}}`},
		{"/v1/generate", `{"source":` + empty + `}`},
		{"/v1/pipelines", `{"steps":[{"id":"x","op":"extract","source":` + empty + `}]}`},
	} {
		var e ErrorResponse
		postJSON(t, ts.URL+tc.route, "application/json", tc.body, http.StatusBadRequest, &e)
		if e.Code != CodeBadRequest || !strings.Contains(e.Error, "empty edge list") {
			t.Fatalf("%s: error (%q, %q), want %q naming the empty edge list", tc.route, e.Code, e.Error, CodeBadRequest)
		}
	}
	var e ErrorResponse
	postJSON(t, ts.URL+"/v1/extract", "text/plain", "# comment\n", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "empty edge list") {
		t.Fatalf("upload error %q should name the empty edge list", e.Error)
	}
	if st := srv.JobStats(); st.Queued+st.Running != 0 || st.Completed+st.Failed != 0 {
		t.Fatalf("jobs ran for empty edge lists: %+v", st)
	}
}

func TestExtractErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 64})

	var e ErrorResponse
	postJSON(t, ts.URL+"/v1/extract?d=7", "text/plain", pawEdges, http.StatusBadRequest, &e)
	if e.Code != CodeBadRequest {
		t.Fatalf("code %q, want %q", e.Code, CodeBadRequest)
	}

	postJSON(t, ts.URL+"/v1/extract", "text/plain", "0 1\nnot numbers\n", http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "bad node") {
		t.Fatalf("parse error %q should name the bad token", e.Error)
	}

	big := strings.Repeat("# padding line\n", 100) + pawEdges
	postJSON(t, ts.URL+"/v1/extract", "text/plain", big, http.StatusRequestEntityTooLarge, &e)
	if e.Code != CodeTooLarge {
		t.Fatalf("code %q, want %q", e.Code, CodeTooLarge)
	}

	postJSON(t, ts.URL+"/v1/extract", "text/plain", "", http.StatusBadRequest, &e)
	postJSON(t, ts.URL+"/v1/extract?dataset=nope", "text/plain", "", http.StatusNotFound, &e)
	if e.Code != CodeNotFound {
		t.Fatalf("code %q, want %q", e.Code, CodeNotFound)
	}
}

func TestGenerateAndCompareErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var e ErrorResponse

	// Unknown method.
	postJSON(t, ts.URL+"/v1/generate", "application/json",
		`{"source":{"dataset":"paw"},"method":"magic"}`, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "magic") {
		t.Fatalf("error %q should name the bad method", e.Error)
	}

	// d=3 without targeting/randomize is rejected synchronously.
	postJSON(t, ts.URL+"/v1/generate", "application/json",
		`{"source":{"dataset":"paw"},"d":3,"method":"matching"}`, http.StatusBadRequest, &e)

	// Unknown hash.
	postJSON(t, ts.URL+"/v1/generate", "application/json",
		`{"source":{"hash":"sha256:feed"}}`, http.StatusNotFound, &e)
	if e.Code != CodeNotFound {
		t.Fatalf("code %q, want %q", e.Code, CodeNotFound)
	}

	// Ambiguous reference.
	postJSON(t, ts.URL+"/v1/compare", "application/json",
		`{"a":{"dataset":"paw","edges":"0 1\n"},"b":{"dataset":"paw"}}`, http.StatusBadRequest, &e)
	if !strings.Contains(e.Error, "exactly one") {
		t.Fatalf("error %q should explain the exclusivity rule", e.Error)
	}

	// Replica cap.
	postJSON(t, ts.URL+"/v1/generate", "application/json",
		`{"source":{"dataset":"paw"},"replicas":100000}`, http.StatusBadRequest, &e)

	// Unknown job / premature result.
	getJSON(t, ts.URL+"/v1/jobs/j999999", http.StatusNotFound, &e)
	getJSON(t, ts.URL+"/v1/jobs/j999999/result", http.StatusNotFound, &e)
}

func TestDatasetEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var list []DatasetInfo
	getJSON(t, ts.URL+"/v1/datasets", http.StatusOK, &list)
	names := make(map[string]bool)
	for _, d := range list {
		names[d.Name] = true
	}
	for _, want := range []string{"paw", "petersen", "hot", "skitter"} {
		if !names[want] {
			t.Fatalf("dataset list %v missing %q", list, want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/datasets/hot?seed=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	g, _, err := graph.ReadEdgeList(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < 900 {
		t.Fatalf("hot dataset n=%d, want the ~921-node default", g.N())
	}
}

func TestCompareDepth3Distances(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Paw vs path P4: same size (4 nodes), different structure.
	path := "0 1\n1 2\n2 3\n"
	req := fmt.Sprintf(`{"a":{"edges":%q},"b":{"edges":%q},"d":3}`, pawEdges, path)
	var cmp CompareResponse
	postJSON(t, ts.URL+"/v1/compare", "application/json", req, http.StatusOK, &cmp)
	if len(cmp.Distances) != 4 {
		t.Fatalf("got %d distance entries, want 4", len(cmp.Distances))
	}
	// Ground truth via direct extraction.
	ga, _, _ := graph.ReadEdgeList(strings.NewReader(pawEdges))
	gb, _, _ := graph.ReadEdgeList(strings.NewReader(path))
	pa, _ := dk.Extract(ga, 3)
	pb, _ := dk.Extract(gb, 3)
	for _, de := range cmp.Distances {
		want, err := dk.Distance(pa, pb, de.D)
		if err != nil {
			t.Fatal(err)
		}
		if de.Value != want {
			t.Fatalf("D_%d = %v, want %v", de.D, de.Value, want)
		}
	}
}
