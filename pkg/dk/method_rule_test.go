package dk_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestMethodRuleAgreement: every entry point that takes a (depth,
// method) pair — pipeline validation, POST /v1/generate, construction
// from a bare profile and streaming generation — accepts and rejects
// the same pairs with the same message. The one exception is by design:
// GenerateFromProfile has no source graph, so it refuses randomize.
func TestMethodRuleAgreement(t *testing.T) {
	const (
		d3       = "d=3 generation from a distribution supports only method=targeting or method=randomize"
		unknown  = `unknown method "bogus" (want randomize|stochastic|pseudograph|matching|targeting)`
		noSource = "method randomize needs a source graph; use Generate"
	)
	ctx := context.Background()
	g := mustGraph(t, "0 1\n1 2\n2 0\n2 3\n3 4\n4 5\n5 3\n5 6\n6 7\n7 0\n1 8\n8 9\n9 1\n4 9\n")
	ext, err := dk.Extract(ctx, g, dk.ExtractOptions{D: dkapi.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	s := dk.NewSession()

	for d := 0; d <= 3; d++ {
		for _, name := range []string{"", "randomize", "stochastic", "pseudograph", "matching", "targeting", "bogus"} {
			randomize := name == "" || name == "randomize"
			var want string
			switch {
			case name == "bogus":
				want = unknown
			case d == 3 && !randomize && name != "targeting":
				want = d3
			}

			validate := errText(pipeline.Validate(dkapi.PipelineRequest{Steps: []dkapi.PipelineStep{{
				ID: "g", Op: dkapi.OpGenerate, Source: &dkapi.GraphRef{Dataset: "paw"},
				D: dkapi.Int(d), Method: name,
			}}}, pipeline.Limits{}))
			validate = strings.TrimPrefix(validate, `step 0 ("g"): `)

			body, _ := json.Marshal(dkapi.GenerateRequest{
				Source: dkapi.GraphRef{Edges: g.Edges()}, D: dkapi.Int(d), Method: name,
			})
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var httpMsg string
			if resp.StatusCode != http.StatusAccepted {
				var er dkapi.ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					t.Fatal(err)
				}
				httpMsg = er.Error
			}
			resp.Body.Close()

			opts := dk.GenerateOptions{D: dkapi.Int(d), Method: name, Seed: 1}
			_, err = dk.GenerateFromProfile(ext.Profile, opts)
			fromProfile := errText(err)
			stream := errText(s.GenerateStream(ctx, g, opts, func(int, *dk.Graph) error { return nil }))

			wantProfile := want
			if randomize {
				wantProfile = noSource
			}
			for _, c := range []struct{ path, got, want string }{
				{"pipeline.Validate", validate, want},
				{"POST /v1/generate", httpMsg, want},
				{"GenerateFromProfile", fromProfile, wantProfile},
				{"GenerateStream", stream, want},
			} {
				if c.got != c.want {
					t.Errorf("d=%d method=%q: %s error %q, want %q", d, name, c.path, c.got, c.want)
				}
			}
		}
	}
}
