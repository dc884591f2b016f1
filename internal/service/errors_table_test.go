package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/pkg/dkapi"
)

// pathEdges builds a path graph's edge list of n distinct edges — big
// enough to trip a small MaxBodyBytes without tripping the duplicate-
// edge parse error first.
func pathEdges(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	return sb.String()
}

// TestDocumentedErrorCodes exercises every error code documented in
// docs/API.md, asserting the (HTTP status, code) pair of each — the
// contract both the client SDK's retry policy and external callers
// program against.
func TestDocumentedErrorCodes(t *testing.T) {
	// Tiny limits make too_large and queue_full reachable cheaply: a
	// 64-node cap trips ErrLimit deterministically (a byte cap would
	// race the parser on whichever truncated line it saw first), and
	// one runner + one queue slot means a single blocked job fills the
	// engine completely.
	srv, ts := newTestServer(t, Options{
		MaxNodes:   64,
		JobRunners: 1,
		JobQueue:   1,
	})

	// Park the single runner on a job that blocks until the test ends,
	// then occupy the one queue slot: the engine is now full, and the
	// blocked job's id is a stable "running" job for conflict checks.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	started := make(chan struct{})
	blocked, err := srv.jobs.Submit("block", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) {
		close(started)
		<-release
		return nil, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the runner to pick the blocker up, so the queue slot is
	// free for the filler (and stays occupied for the queue-full case).
	<-started
	if _, err := srv.jobs.Submit("queued", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) { return nil, nil, nil }); err != nil {
		t.Fatal(err)
	}

	do := func(t *testing.T, method, path, body string) (int, dkapi.ErrorResponse) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var envelope dkapi.ErrorResponse
		if err := json.Unmarshal(raw, &envelope); err != nil {
			t.Fatalf("%s %s: non-envelope error body %q", method, path, raw)
		}
		return resp.StatusCode, envelope
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"bad depth", "POST", "/v1/extract?d=9", "0 1\n", http.StatusBadRequest, CodeBadRequest},
		{"bad body json", "POST", "/v1/generate", "{", http.StatusBadRequest, CodeBadRequest},
		{"bad pipeline op", "POST", "/v1/pipelines",
			`{"steps":[{"id":"x","op":"teleport","source":{"dataset":"paw"}}]}`,
			http.StatusBadRequest, CodeBadRequest},
		{"step ref outside pipeline", "POST", "/v1/compare",
			`{"a":{"step":"x"},"b":{"dataset":"paw"}}`, http.StatusBadRequest, CodeBadRequest},
		{"file ref on server", "POST", "/v1/compare",
			`{"a":{"file":"/etc/hosts"},"b":{"dataset":"paw"}}`, http.StatusBadRequest, CodeBadRequest},

		{"unknown job", "GET", "/v1/jobs/j999999", "", http.StatusNotFound, CodeNotFound},
		{"unknown dataset", "POST", "/v1/extract?dataset=nope", "", http.StatusNotFound, CodeNotFound},
		{"unknown hash", "POST", "/v1/generate",
			`{"source":{"hash":"sha256:` + strings.Repeat("ab", 32) + `"}}`,
			http.StatusNotFound, CodeNotFound},
		{"unknown graph lookup", "GET", "/v1/graphs/sha256:" + strings.Repeat("cd", 32), "",
			http.StatusNotFound, CodeNotFound},

		{"oversized body", "POST", "/v1/extract", pathEdges(4096),
			http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"oversized dataset", "POST", "/v1/extract?dataset=skitter&n=999999", "",
			http.StatusRequestEntityTooLarge, CodeTooLarge},

		{"queue full", "POST", "/v1/generate", `{"source":{"dataset":"paw"}}`,
			http.StatusTooManyRequests, CodeQueueFull},

		{"result of running job", "GET", "/v1/jobs/" + blocked.ID() + "/result", "",
			http.StatusConflict, CodeConflict},

		// skitter cannot draw a graphical power-law sequence at n=1 — a
		// deterministic synthesis failure, which is a server-side error,
		// not a client one.
		{"dataset synthesis failure", "POST", "/v1/extract?dataset=skitter&n=1", "",
			http.StatusInternalServerError, CodeInternal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, envelope := do(t, tc.method, tc.path, tc.body)
			if status != tc.wantStatus || envelope.Code != tc.wantCode {
				t.Fatalf("%s %s -> (%d, %q), want (%d, %q); error: %s",
					tc.method, tc.path, status, envelope.Code, tc.wantStatus, tc.wantCode, envelope.Error)
			}
			if envelope.Error == "" {
				t.Fatal("error envelope has an empty message")
			}
		})
	}

	// unavailable needs a draining server — its own instance so the
	// cases above are unaffected.
	t.Run("draining submit", func(t *testing.T) {
		srv2, ts2 := newTestServer(t, Options{})
		srv2.StartDraining()
		for _, path := range []string{"/v1/generate", "/v1/pipelines"} {
			resp, err := http.Post(ts2.URL+path, "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			var envelope dkapi.ErrorResponse
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = json.Unmarshal(raw, &envelope)
			if resp.StatusCode != http.StatusServiceUnavailable || envelope.Code != CodeUnavailable {
				t.Fatalf("POST %s while draining -> (%d, %q), want (503, %q)",
					path, resp.StatusCode, envelope.Code, CodeUnavailable)
			}
		}
	})
}
