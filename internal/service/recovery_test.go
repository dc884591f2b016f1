package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/pkg/dkapi"
)

// TestRecoveryRejectsInvalidSpecs pins what recovery answers for each
// journaled spec it cannot re-queue: a generate spec that breaks a step
// rule or whose source is gone, a pipeline with an invalid step, and a
// kind no server writes. Each job must poll as failed with the reason
// text below, and the journal must fold it to failed.
func TestRecoveryRejectsInvalidSpecs(t *testing.T) {
	missing := "sha256:" + strings.Repeat("ab", 32)
	genSpec := func(d int, method string, replicas int) json.RawMessage {
		spec, _ := json.Marshal(GenerateRequest{
			Source: GraphRef{Hash: missing}, D: &d, Method: method, Replicas: replicas,
		})
		return spec
	}
	pipeSpec, _ := json.Marshal(dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{{
		ID: "x", Op: "teleport", Source: &dkapi.GraphRef{Hash: missing},
	}}})
	cases := []struct {
		id, kind string
		spec     json.RawMessage
		want     string
	}{
		{"j000101", "generate", genSpec(2, "bogus", 1),
			`recovery: invalid spec (d=2 replicas=1 method="bogus")`},
		{"j000102", "generate", genSpec(3, "matching", 1),
			`recovery: invalid spec (d=3 replicas=1 method="matching")`},
		{"j000103", "generate", genSpec(2, "randomize", 0),
			`recovery: invalid spec (d=2 replicas=0 method="randomize")`},
		{"j000104", "generate", genSpec(2, "randomize", 1),
			"recovery: source: hash " + missing + " not in cache (evicted or never uploaded); re-upload the edge list"},
		{"j000105", "pipeline", pipeSpec,
			`recovery: invalid spec: step 0 ("x"): unknown op "teleport" (want extract|generate|randomize|compare|census|metrics|netsim)`},
		{"j000106", "frobnicate", json.RawMessage(`{}`),
			`recovery: unknown job kind "frobnicate"`},
	}

	st1, dir := openTestStore(t)
	for _, c := range cases {
		if err := st1.Journal().Record(store.JobRecord{ID: c.id, Status: store.JobQueued, Kind: c.kind, Spec: c.spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv, ts := newTestServer(t, Options{Store: st2})
	if got := srv.JobStats().Recovered; got != 0 {
		t.Fatalf("recovered %d jobs, want 0", got)
	}
	for _, c := range cases {
		var view JobView
		getJSON(t, ts.URL+"/v1/jobs/"+c.id, http.StatusOK, &view)
		if view.Status != JobFailed || view.Error != c.want {
			t.Errorf("%s (%s): polled %s with %q, want failed with %q", c.id, c.kind, view.Status, view.Error, c.want)
		}
	}
	states, err := st2.Journal().Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != len(cases) {
		t.Fatalf("journal holds %d jobs, want %d", len(states), len(cases))
	}
	for _, s := range states {
		if s.Status != store.JobFailed {
			t.Errorf("journal folds %s to %s, want failed", s.ID, s.Status)
		}
	}
}
