package dk_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

// TestReplicaCountRule: every generate entry point refuses a replica
// count below 1 with an error — none of them panics building the
// ensemble. Session.Generate and POST /v1/generate keep their upper
// bound; the streaming and profile-only entry points have none.
func TestReplicaCountRule(t *testing.T) {
	ctx := context.Background()
	g := mustGraph(t, "0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n")
	ext, err := dk.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	s := dk.NewSession()

	post := func(opts dk.GenerateOptions) error {
		body, _ := json.Marshal(dkapi.GenerateRequest{
			Source: dkapi.GraphRef{Edges: g.Edges()}, Method: opts.Method, Replicas: opts.Replicas,
		})
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			return nil
		}
		var er dkapi.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return errors.New(er.Error)
	}
	entries := []struct {
		name string
		run  func(dk.GenerateOptions) error
		want string
	}{
		{"Session.Generate", func(o dk.GenerateOptions) error {
			_, err := s.Generate(ctx, g, o)
			return err
		}, `step 0 ("generate"): replicas=-1 outside 1..128`},
		{"POST /v1/generate", post, "replicas=-1 outside 1..128"},
		{"GenerateStream", func(o dk.GenerateOptions) error {
			return s.GenerateStream(ctx, g, o, func(int, *dk.Graph) error { return nil })
		}, "replicas=-1 must be at least 1"},
		{"GenerateFromProfile", func(o dk.GenerateOptions) error {
			o.Method = "stochastic"
			_, err := dk.GenerateFromProfile(ext.Profile, o)
			return err
		}, "replicas=-1 must be at least 1"},
	}
	for _, e := range entries {
		if got := errText(e.run(dk.GenerateOptions{Replicas: -1, Seed: 1})); got != e.want {
			t.Errorf("%s with replicas=-1: error %q, want %q", e.name, got, e.want)
		}
		// Far above the service bound, the streaming entry points still
		// build; only the bounded ones refuse.
		got := errText(e.run(dk.GenerateOptions{Replicas: 129, Seed: 1}))
		if bounded := strings.Contains(e.want, "1..128"); bounded != (got != "") {
			t.Errorf("%s with replicas=129: error %q (bounded entry point: %v)", e.name, got, bounded)
		}
	}
}

// TestGenerateRejectsRewireCallbacks: Session.Generate runs the replica
// fan-out inside the pipeline executor, which reports convergence only
// as trace events, so a caller's rewiring callbacks would never fire.
// It refuses them and names the entry point that honors them.
func TestGenerateRejectsRewireCallbacks(t *testing.T) {
	g := mustGraph(t, "0 1\n1 2\n2 0\n2 3\n")
	const want = "Generate does not support OnRewireStats or OnRewireProgress; use GenerateStream"
	for name, opts := range map[string]dk.GenerateOptions{
		"OnRewireStats":    {OnRewireStats: func(int, dk.RewireStats) {}},
		"OnRewireProgress": {OnRewireProgress: func(int, dk.RewireProgress) {}},
	} {
		if _, err := dk.NewSession().Generate(context.Background(), g, opts); errText(err) != want {
			t.Errorf("Generate with %s: error %q, want %q", name, errText(err), want)
		}
	}
}
