package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/store"
)

// openTestStore opens an artifact store in a fresh temp dir and returns
// the dir for reopening across simulated restarts.
func openTestStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

const persistEdges = "0 1\n1 2\n2 3\n3 0\n0 2\n"

// TestRestartCacheSurvives is the tentpole acceptance path: extract,
// restart on the same data dir, re-extract — the second server must serve
// the profile from the disk tier with zero extraction runs, and the hash
// reference must keep resolving.
func TestRestartCacheSurvives(t *testing.T) {
	st1, dir := openTestStore(t)
	srv1, ts1 := newTestServer(t, Options{Store: st1})

	var first ExtractResponse
	postJSON(t, ts1.URL+"/v1/extract?d=3", "text/plain", persistEdges, http.StatusOK, &first)
	if first.Cached {
		t.Fatal("first extract reported cached")
	}
	cs := srv1.CacheStats()
	if cs.Extractions != 1 || cs.DiskGraphWrites != 1 || cs.DiskProfileWrites != 1 {
		t.Fatalf("first server cache stats %+v, want 1 extraction / 1 graph write / 1 profile write", cs)
	}
	ts1.Close()
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new server process on the same data dir.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, ts2 := newTestServer(t, Options{Store: st2})

	var second ExtractResponse
	postJSON(t, ts2.URL+"/v1/extract?d=3", "text/plain", persistEdges, http.StatusOK, &second)
	if !second.Cached {
		t.Fatal("post-restart extract recomputed instead of hitting the disk tier")
	}
	if second.Graph.Hash != first.Graph.Hash {
		t.Fatalf("hash changed across restart: %s vs %s", second.Graph.Hash, first.Graph.Hash)
	}
	cs = srv2.CacheStats()
	if cs.Extractions != 0 {
		t.Fatalf("post-restart extractions = %d, want 0 (no recomputation)", cs.Extractions)
	}
	if cs.DiskHits == 0 {
		t.Fatalf("post-restart cache stats %+v, want disk hits", cs)
	}

	// The content hash also resolves by reference on the fresh process.
	edgesJSON, _ := json.Marshal(persistEdges)
	body := fmt.Sprintf(`{"a": {"hash": %q}, "b": {"edges": %s}, "d": 1}`,
		first.Graph.Hash, edgesJSON)
	var cmp CompareResponse
	postJSON(t, ts2.URL+"/v1/compare", "application/json", body, http.StatusOK, &cmp)
	if cmp.A.Hash != first.Graph.Hash {
		t.Fatalf("hash reference resolved to %s", cmp.A.Hash)
	}

	// /v1/stats reports the store section with the persisted artifacts.
	var stats StatsResponse
	getJSON(t, ts2.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.Store == nil {
		t.Fatal("stats missing store section with a data dir configured")
	}
	if stats.Store.Graphs != 1 || stats.Store.Profiles != 1 {
		t.Fatalf("store stats %+v, want 1 graph / 1 profile", *stats.Store)
	}
	if !stats.Cache.DiskTier {
		t.Fatal("cache stats do not report the disk tier")
	}
}

// TestRestartJobRecovery simulates a server killed mid-generate: the
// journal holds a running (crashed mid-flight) and a queued (never
// started) job whose graph artifact is on disk — exactly what a killed
// process leaves behind. A fresh server on the same data dir must re-run
// both to completion under their original ids.
func TestRestartJobRecovery(t *testing.T) {
	st1, dir := openTestStore(t)
	srv1, ts1 := newTestServer(t, Options{Store: st1})

	var first ExtractResponse
	postJSON(t, ts1.URL+"/v1/extract?d=2", "text/plain", persistEdges, http.StatusOK, &first)
	hash := first.Graph.Hash
	ts1.Close()
	srv1.Close()

	// The kill: no terminal records ever reach the journal.
	d := 2
	spec, _ := json.Marshal(GenerateRequest{
		Source: GraphRef{Hash: hash}, D: &d, Method: "randomize",
		Replicas: 2, Seed: 7, Compare: true,
	})
	mustRecord := func(rec store.JobRecord) {
		t.Helper()
		if err := st1.Journal().Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustRecord(store.JobRecord{ID: "j000041", Status: store.JobQueued, Kind: "generate", Spec: spec})
	mustRecord(store.JobRecord{ID: "j000041", Status: store.JobRunning})
	mustRecord(store.JobRecord{ID: "j000042", Status: store.JobQueued, Kind: "generate", Spec: spec})
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, ts2 := newTestServer(t, Options{Store: st2})

	if got := srv2.JobStats().Recovered; got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
	for _, id := range []string{"j000041", "j000042"} {
		job := srv2.jobs.Get(id)
		if job == nil {
			t.Fatalf("recovered job %s not tracked", id)
		}
		view := waitJob(t, job)
		if view.Status != JobDone {
			t.Fatalf("recovered job %s finished %s: %s", id, view.Status, view.Error)
		}
		var result GenerateResult
		raw, _ := json.Marshal(view.Result)
		if err := json.Unmarshal(raw, &result); err != nil {
			t.Fatalf("recovered job %s result: %v", id, err)
		}
		if len(result.Replicas) != 2 || result.Seed != 7 {
			t.Fatalf("recovered job %s result %+v, want 2 replicas seed 7", id, result)
		}
		// Randomize at d=2 preserves the dK-2 distance exactly.
		for _, r := range result.Replicas {
			if r.Distance == nil || *r.Distance != 0 {
				t.Fatalf("recovered job %s replica %+v, want distance 0", id, r)
			}
		}
	}
	// Poll over HTTP too: clients find their pre-restart job ids.
	var view JobView
	getJSON(t, ts2.URL+"/v1/jobs/j000041", http.StatusOK, &view)
	if view.Status != JobDone {
		t.Fatalf("HTTP poll of recovered job: %+v", view)
	}
	// New submissions get ids beyond the replayed sequence.
	body := fmt.Sprintf(`{"source": {"hash": %q}, "replicas": 1}`, hash)
	var acc GenerateAccepted
	postJSON(t, ts2.URL+"/v1/generate", "application/json", body, http.StatusAccepted, &acc)
	if acc.JobID <= "j000042" {
		t.Fatalf("new job id %s not beyond the journaled sequence", acc.JobID)
	}
	// The journal now folds both recovered jobs to done.
	states, err := st2.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, s := range states {
		if (s.ID == "j000041" || s.ID == "j000042") && s.Status == store.JobDone {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("journal states %+v, want both recovered jobs done", states)
	}
}

// waitJobHTTP polls the job endpoint until the job is terminal.
func waitJobHTTP(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v JobView
		getJSON(t, baseURL+"/v1/jobs/"+id, http.StatusOK, &v)
		if v.Status == JobDone || v.Status == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartGenerateDeterminism: the same randomize request with the
// same seed must produce byte-identical replicas whether the source
// graph was parsed from an (arbitrarily ordered) text upload or
// promoted from the binary disk tier after a restart. Randomize draws
// edges by index, so this holds only because the cache canonicalizes
// edge order at intern time.
func TestRestartGenerateDeterminism(t *testing.T) {
	// A random graph uploaded in scrambled, partly reversed line order —
	// nothing like the canonical order the binary artifact decodes to.
	rng := rand.New(rand.NewSource(3))
	g := graph.NewCSR(30)
	for g.M() < 60 {
		u, v := rng.Intn(30), rng.Intn(30)
		if u != v && !g.HasEdge(u, v) {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var sb strings.Builder
	for i, e := range edges {
		if i%3 == 0 {
			fmt.Fprintf(&sb, "%d %d\n", e.V, e.U)
		} else {
			fmt.Fprintf(&sb, "%d %d\n", e.U, e.V)
		}
	}
	upload := sb.String()

	generate := func(ts *httptest.Server, source string) string {
		t.Helper()
		body := fmt.Sprintf(`{"source": %s, "method": "randomize", "d": 2, "replicas": 1, "seed": 5}`, source)
		var acc GenerateAccepted
		postJSON(t, ts.URL+"/v1/generate", "application/json", body, http.StatusAccepted, &acc)
		if v := waitJobHTTP(t, ts.URL, acc.JobID); v.Status != JobDone {
			t.Fatalf("generate job: %+v", v)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}

	st1, dir := openTestStore(t)
	_, ts1 := newTestServer(t, Options{Store: st1})
	var ext ExtractResponse
	postJSON(t, ts1.URL+"/v1/extract?d=2", "text/plain", upload, http.StatusOK, &ext)
	uploadJSON, _ := json.Marshal(upload)
	first := generate(ts1, fmt.Sprintf(`{"edges": %s}`, uploadJSON))
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, ts2 := newTestServer(t, Options{Store: st2})
	second := generate(ts2, fmt.Sprintf(`{"hash": %q}`, ext.Graph.Hash))
	if srv2.CacheStats().DiskHits == 0 {
		t.Fatal("second run did not exercise the disk-tier promotion path")
	}
	if first != second {
		t.Fatal("same (hash, seed) generate produced different replicas across a restart")
	}
}

// TestRecoveryUnresolvableSpec: a journaled job whose graph artifact is
// gone is closed out as failed, not silently dropped and not crashing
// startup.
func TestRecoveryUnresolvableSpec(t *testing.T) {
	st1, dir := openTestStore(t)
	d := 2
	spec, _ := json.Marshal(GenerateRequest{
		Source: GraphRef{Hash: "sha256:" + strings.Repeat("ab", 32)}, D: &d,
		Method: "randomize", Replicas: 1,
	})
	if err := st1.Journal().Record(store.JobRecord{ID: "j000009", Status: store.JobQueued, Kind: "generate", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, ts2 := newTestServer(t, Options{Store: st2})
	if got := srv2.JobStats().Recovered; got != 0 {
		t.Fatalf("recovered %d jobs, want 0", got)
	}
	states, err := st2.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Status != store.JobFailed {
		t.Fatalf("journal states %+v, want the job folded to failed", states)
	}
	// The poll contract survives: the id answers "failed" with the
	// reason, not 404.
	var view JobView
	getJSON(t, ts2.URL+"/v1/jobs/j000009", http.StatusOK, &view)
	if view.Status != JobFailed || !strings.Contains(view.Error, "recovery") {
		t.Fatalf("unrecoverable job polled as %+v, want failed with recovery reason", view)
	}
}

// TestGracefulShutdownJournalsQueued: Close fails queued jobs, and the
// journal records it — so a clean shutdown leaves nothing to recover.
func TestGracefulShutdownJournalsQueued(t *testing.T) {
	st, dir := openTestStore(t)
	srv := New(Options{Store: st, JobRunners: 1, JobQueue: 8})

	release := make(chan struct{})
	if _, err := srv.jobs.Submit("blocker", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) {
		<-release
		return nil, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Give the runner a moment to pick up the blocker, then queue one.
	deadline := time.Now().Add(5 * time.Second)
	for srv.jobs.Stats().Running < 1 {
		if time.Now().After(deadline) {
			t.Fatal("runner never started the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := srv.jobs.Submit("queued", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) { return nil, nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	states, err := st2.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		if !s.Terminal() {
			t.Fatalf("job %s left %s after graceful shutdown", s.ID, s.Status)
		}
		if s.ID == queued.ID() && s.Status == store.JobDone {
			// The queued job may have run before Close drained it; both
			// done and failed are clean terminal outcomes.
			continue
		}
	}
}
