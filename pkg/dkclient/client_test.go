package dkclient

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

func newServer(t *testing.T) (*service.Server, *Client) {
	t.Helper()
	srv := service.New(service.Options{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// smokePipeline is the paper's workflow as one declarative request:
// extract a profile, generate a 2K ensemble, compare a replica against
// the original.
func smokePipeline() dkapi.PipelineRequest {
	return dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "ext", Op: dkapi.OpExtract, Source: &dkapi.GraphRef{Dataset: "hot", Seed: 7}, D: dkapi.Int(2)},
		{ID: "gen", Op: dkapi.OpGenerate, Source: &dkapi.GraphRef{Step: "ext"},
			D: dkapi.Int(2), Replicas: 3, Seed: 42, Compare: true},
		{ID: "cmp", Op: dkapi.OpCompare,
			A: &dkapi.GraphRef{Step: "ext"},
			B: &dkapi.GraphRef{Step: "gen", Replica: 1},
			D: dkapi.Int(2)},
	}}
}

// TestPipelineLocalRemoteIdentical is the acceptance check of the PR:
// one POST /v1/pipelines request reproduces extract→generate(2K)→
// compare end-to-end, and the local facade produces byte-identical
// results for the same request.
func TestPipelineLocalRemoteIdentical(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()

	remote, jobID, err := c.RunPipeline(ctx, smokePipeline())
	if err != nil {
		t.Fatal(err)
	}
	local, err := dk.RunPipeline(ctx, smokePipeline())
	if err != nil {
		t.Fatal(err)
	}

	rb, _ := json.Marshal(remote)
	lb, _ := json.Marshal(local.Result)
	if string(rb) != string(lb) {
		t.Fatalf("local and remote pipeline results differ:\nlocal:  %s\nremote: %s", lb, rb)
	}

	// The bulk stream and the local graphs must also match byte for byte.
	body, err := c.JobResult(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	streamed, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	var localStream strings.Builder
	for _, sg := range local.Graphs {
		for i, g := range sg.Graphs {
			fmt.Fprintf(&localStream, "# step %s replica %d\n", sg.StepID, i)
			if err := g.WriteEdgeList(&localStream); err != nil {
				t.Fatal(err)
			}
		}
	}
	if localStream.String() != string(streamed) {
		t.Fatalf("local graphs and remote bulk stream differ (%d vs %d bytes)",
			localStream.Len(), len(streamed))
	}

	// And a second remote run is deterministic.
	again, _, err := c.RunPipeline(ctx, smokePipeline())
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(again)
	if string(ab) != string(rb) {
		t.Fatal("two identical pipeline submissions produced different results")
	}
}

// netsimPipeline is the scenario workflow as one declarative request:
// build a dK-random ensemble, then simulate the paper's three behavioral
// probes over the measured graph and every replica.
func netsimPipeline() dkapi.PipelineRequest {
	src := dkapi.GraphRef{Dataset: "hot", Seed: 7}
	ensemble := make([]dkapi.GraphRef, 8)
	for i := range ensemble {
		ensemble[i] = dkapi.GraphRef{Step: "gen", Replica: i}
	}
	return dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "gen", Op: dkapi.OpGenerate, Source: &src, D: dkapi.Int(2), Replicas: 8, Seed: 42},
		{ID: "sim", Op: dkapi.OpNetsim, Source: &src, Ensemble: ensemble,
			Scenarios: []dkapi.ScenarioSpec{
				{Kind: dkapi.ScenarioRobustness, Fracs: []float64{0, 0.25, 0.5, 0.75}, Targeted: true, Trials: 2},
				{Kind: dkapi.ScenarioEpidemic, Beta: 0.5, Rounds: 12, Trials: 2},
				{Kind: dkapi.ScenarioRouting, Pairs: 12, TTL: 64, Trials: 2},
			},
			Seed: 9},
	}}
}

// TestNetsimLocalRemoteIdentical: a netsim step over a measured graph
// plus an 8-replica dK-random ensemble returns measured-vs-ensemble
// curves for all three scenario kinds, byte-identical between the local
// facade and a remote server, and across repeated remote submissions.
// TestEmptyInlineEdgesLocalRemoteAgree checks that an inline edge list
// with no edges fails the same pipeline locally (pkg/dk) and remotely
// (the server) instead of running on a 0-node graph.
func TestEmptyInlineEdgesLocalRemoteAgree(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()
	req := dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{
		{ID: "ext", Op: dkapi.OpExtract, Source: &dkapi.GraphRef{Edges: "# comment\n"}, D: dkapi.Int(1)},
	}}
	if _, _, err := c.RunPipeline(ctx, req); err == nil || !strings.Contains(err.Error(), "empty edge list") {
		t.Fatalf("remote run: err %v, want an empty edge list error", err)
	}
	if _, err := dk.RunPipeline(ctx, req); err == nil || !strings.Contains(err.Error(), "empty edge list") {
		t.Fatalf("local run: err %v, want an empty edge list error", err)
	}
}

func TestNetsimLocalRemoteIdentical(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()

	remote, _, err := c.RunPipeline(ctx, netsimPipeline())
	if err != nil {
		t.Fatal(err)
	}
	local, err := dk.RunPipeline(ctx, netsimPipeline())
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := json.Marshal(remote)
	lb, _ := json.Marshal(local.Result)
	if string(rb) != string(lb) {
		t.Fatalf("local and remote netsim results differ:\nlocal:  %s\nremote: %s", lb, rb)
	}

	sim := remote.Steps[1]
	if sim.EnsembleSize != 8 {
		t.Fatalf("ensemble size = %d, want 8", sim.EnsembleSize)
	}
	if len(sim.Scenarios) != 3 {
		t.Fatalf("scenario count = %d, want 3", len(sim.Scenarios))
	}
	for _, sc := range sim.Scenarios {
		if len(sc.Measured) == 0 || len(sc.Ensemble) != len(sc.Measured) {
			t.Fatalf("scenario %s: measured %d points, ensemble %d", sc.Kind, len(sc.Measured), len(sc.Ensemble))
		}
		if sc.Divergence == nil {
			t.Fatalf("scenario %s: no divergence summary despite ensemble", sc.Kind)
		}
	}

	again, _, err := c.RunPipeline(ctx, netsimPipeline())
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(again)
	if string(ab) != string(rb) {
		t.Fatal("two identical netsim submissions produced different results")
	}
}

// TestEnsureGraphSkipsReupload: the second EnsureGraph for the same
// topology is a pure hash probe — no new cache entry, no upload.
func TestEnsureGraphSkipsReupload(t *testing.T) {
	srv, c := newServer(t)
	ctx := context.Background()
	edges := "0 1\n1 2\n2 0\n2 3\n"

	info1, skipped, err := c.EnsureGraph(ctx, edges)
	if err != nil {
		t.Fatal(err)
	}
	if skipped {
		t.Fatal("first EnsureGraph claims the server already had the graph")
	}
	missesAfterUpload := srv.CacheStats().Misses

	info2, skipped, err := c.EnsureGraph(ctx, edges)
	if err != nil {
		t.Fatal(err)
	}
	if !skipped {
		t.Fatal("second EnsureGraph re-uploaded a known topology")
	}
	if info1 != info2 {
		t.Fatalf("EnsureGraph infos differ: %+v vs %+v", info1, info2)
	}
	if got := srv.CacheStats().Misses; got != missesAfterUpload {
		t.Fatalf("second EnsureGraph created a cache entry (misses %d -> %d)", missesAfterUpload, got)
	}
}

// TestRetryOn429And503: submissions rejected with queue_full or
// unavailable are retried with backoff until they land.
func TestRetryOn429And503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"job queue full","code":"queue_full"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"draining","code":"unavailable"}`)
		default:
			fmt.Fprintln(w, `{"job_id":"j000007","status_url":"/v1/jobs/j000007"}`)
		}
	}))
	defer ts.Close()
	c, err := New(ts.URL, Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := c.SubmitGenerate(context.Background(), dkapi.GenerateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if acc.JobID != "j000007" {
		t.Fatalf("job id %q, want j000007", acc.JobID)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two rejections + success)", got)
	}
}

// TestRetryGivesUp: a persistent 400 is not retried.
func TestRetryGivesUp(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintln(w, `{"error":"nope","code":"bad_request"}`)
	}))
	defer ts.Close()
	c, err := New(ts.URL, Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitGenerate(context.Background(), dkapi.GenerateRequest{})
	var ae *APIError
	if err == nil || !errorsAs(err, &ae) || ae.Code != dkapi.CodeBadRequest {
		t.Fatalf("err = %v, want bad_request APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 was retried (%d calls)", got)
	}
}

// errorsAs avoids importing errors just for the test.
func errorsAs(err error, target **APIError) bool {
	for err != nil {
		if ae, ok := err.(*APIError); ok {
			*target = ae
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestGenerateWaitAndStream: the classic async flow through the typed
// client — submit, poll to completion, stream the replica edge lists.
func TestGenerateWaitAndStream(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()

	res, jobID, err := c.GenerateWait(ctx, dkapi.GenerateRequest{
		Source:   dkapi.GraphRef{Dataset: "paw"},
		D:        dkapi.Int(2),
		Replicas: 2,
		Seed:     9,
		Compare:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Replicas) != 2 {
		t.Fatalf("got %d replicas, want 2", len(res.Replicas))
	}
	for _, r := range res.Replicas {
		if r.Distance == nil || *r.Distance != 0 {
			t.Fatalf("2K-randomize replica distance = %v, want exactly 0", r.Distance)
		}
	}
	body, err := c.JobResult(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# replica 0") || !strings.Contains(string(data), "# replica 1") {
		t.Fatalf("bulk result missing replica markers:\n%s", data)
	}
}

// TestRequestIDRetryReuse: the client mints one X-Request-Id per
// logical request, re-sends it verbatim across 429/503 retries, and a
// fresh logical request gets a fresh id. Failed requests surface the id
// in the error.
func TestRequestIDRetryReuse(t *testing.T) {
	var mu struct {
		rids []string
	}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.rids = append(mu.rids, r.Header.Get("X-Request-Id"))
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"job queue full","code":"queue_full"}`)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"draining","code":"unavailable"}`)
		case 3:
			fmt.Fprintln(w, `{"job_id":"j000001","status_url":"/v1/jobs/j000001"}`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"no such job","code":"not_found"}`)
		}
	}))
	defer ts.Close()
	c, err := New(ts.URL, Options{RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitGenerate(context.Background(), dkapi.GenerateRequest{}); err != nil {
		t.Fatal(err)
	}
	if len(mu.rids) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(mu.rids))
	}
	if mu.rids[0] == "" {
		t.Fatal("client sent no X-Request-Id")
	}
	if mu.rids[0] != mu.rids[1] || mu.rids[1] != mu.rids[2] {
		t.Fatalf("request id changed across retries: %v", mu.rids)
	}

	_, err = c.Job(context.Background(), "j999999")
	var ae *APIError
	if err == nil || !errorsAs(err, &ae) {
		t.Fatalf("err = %v, want APIError", err)
	}
	rid2 := mu.rids[len(mu.rids)-1]
	if ae.RequestID != rid2 {
		t.Fatalf("APIError.RequestID = %q, want %q", ae.RequestID, rid2)
	}
	if !strings.Contains(err.Error(), rid2) {
		t.Fatalf("error string %q does not surface request id %q", err, rid2)
	}
	if rid2 == mu.rids[0] {
		t.Fatal("distinct logical requests shared a request id")
	}
}

// TestJobTrace: the typed client fetches a finished job's JSONL trace.
func TestJobTrace(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()
	_, jobID, err := c.RunPipeline(ctx, smokePipeline())
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.JobTrace(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"trace"`) || !strings.Contains(string(data), `"name":"job"`) {
		t.Fatalf("trace JSONL missing expected records:\n%.300s", data)
	}
	if _, err := c.JobTrace(ctx, "j999999"); !IsNotFound(err) {
		t.Fatalf("unknown job trace: err = %v, want not_found", err)
	}
}
