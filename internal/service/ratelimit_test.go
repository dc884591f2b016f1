package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for limiter tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestRateLimiterRefill(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rl := newRateLimiter(2, 4) // 2 tokens/s, burst 4
	rl.now = clock.now

	// The full burst is available immediately; the next request is over.
	for i := 0; i < 4; i++ {
		if ok, _ := rl.Allow("id:a"); !ok {
			t.Fatalf("request %d rejected inside the burst", i)
		}
	}
	ok, wait := rl.Allow("id:a")
	if ok {
		t.Fatal("request beyond the burst admitted")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 500ms] at 2 tokens/s", wait)
	}

	// Half a second accrues one token — exactly one more request.
	clock.advance(500 * time.Millisecond)
	if ok, _ := rl.Allow("id:a"); !ok {
		t.Fatal("token not accrued after refill interval")
	}
	if ok, _ := rl.Allow("id:a"); ok {
		t.Fatal("second request admitted on a single accrued token")
	}

	// Idling never overfills past the burst.
	clock.advance(time.Hour)
	for i := 0; i < 4; i++ {
		if ok, _ := rl.Allow("id:a"); !ok {
			t.Fatalf("request %d rejected after full refill", i)
		}
	}
	if ok, _ := rl.Allow("id:a"); ok {
		t.Fatal("burst cap not enforced after a long idle")
	}

	// Other clients are unaffected throughout.
	if ok, _ := rl.Allow("id:b"); !ok {
		t.Fatal("distinct client starved by a's bucket")
	}
	st := rl.Stats()
	if st.Clients != 2 {
		t.Fatalf("clients = %d, want 2", st.Clients)
	}
	if st.Limited == 0 || st.Allowed == 0 {
		t.Fatalf("counters not moving: %+v", st)
	}
}

func TestRateLimiterEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	rl := newRateLimiter(1, 1)
	rl.now = clock.now

	// Fill the table with clients that stay hot (empty buckets).
	for i := 0; i < rateLimiterMaxClients; i++ {
		rl.Allow("id:" + strconv.Itoa(i))
	}
	if got := rl.Stats().Clients; got != rateLimiterMaxClients {
		t.Fatalf("clients = %d, want %d", got, rateLimiterMaxClients)
	}
	// A new client still gets tracked (stalest hot bucket evicted), and
	// the table never exceeds its bound.
	if ok, _ := rl.Allow("id:fresh"); !ok {
		t.Fatal("new client denied its burst when the table was full")
	}
	if got := rl.Stats().Clients; got > rateLimiterMaxClients {
		t.Fatalf("table grew past bound: %d", got)
	}
	// After every bucket refills, idle clients are reclaimed in bulk.
	clock.advance(time.Hour)
	rl.Allow("id:later")
	if got := rl.Stats().Clients; got > 2 {
		t.Fatalf("refilled buckets not reclaimed: %d clients", got)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{10 * time.Second, "10"},
	} {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", tc.wait, got, tc.want)
		}
	}
}

// TestRateLimitMiddleware is the 429 regression test: limited requests
// must carry Retry-After and the rate_limited code, stay out of the
// per-route error counters, and never reach the job engine.
func TestRateLimitMiddleware(t *testing.T) {
	srv, ts := newTestServer(t, Options{RatePerSec: 1, RateBurst: 2})

	var before StatsResponse
	getJSONAs(t, ts.URL+"/v1/stats", "client-a", &before)

	do := func(clientID string) *http.Response {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets", nil)
		if err != nil {
			t.Fatal(err)
		}
		if clientID != "" {
			req.Header.Set("X-Client-Id", clientID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Burn client-a's remaining budget, then confirm the 429 contract.
	var limited *http.Response
	for i := 0; i < 10; i++ {
		resp := do("client-a")
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
			break
		}
		resp.Body.Close()
	}
	if limited == nil {
		t.Fatal("client never rate limited at 1 req/s burst 2")
	}
	defer limited.Body.Close()
	ra := limited.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integral seconds >= 1", ra)
	}
	var envelope ErrorResponse
	body, _ := io.ReadAll(limited.Body)
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("429 body not an error envelope: %v; body: %s", err, body)
	}
	if envelope.Code != CodeRateLimited {
		t.Fatalf("429 code = %q, want %q", envelope.Code, CodeRateLimited)
	}

	// A different client id is a different bucket.
	if resp := do("client-b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh client got %d, want 200", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Health probes and the scrape are exempt even for the limited client.
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/metrics"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("X-Client-Id", "client-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("%s rate limited; probes must be exempt", path)
		}
	}

	// The rejection left no trace in route or engine error counters: the
	// limited request never reached the mux, and the engine never saw a
	// submission.
	var after StatsResponse
	getJSONAs(t, ts.URL+"/v1/stats", "client-c", &after)
	if after.Jobs.Failed != before.Jobs.Failed || after.Jobs.Rejected != before.Jobs.Rejected {
		t.Fatalf("engine counters moved on a rate-limited request: %+v -> %+v", before.Jobs, after.Jobs)
	}
	rs := after.Routes["GET /v1/datasets"]
	if rs.Errors != 0 {
		t.Fatalf("429s leaked into route errors: %+v", rs)
	}
	if after.RateLimit == nil {
		t.Fatal("stats missing rate_limit block with a limiter configured")
	}
	if after.RateLimit.Limited == 0 || after.RateLimit.Allowed == 0 {
		t.Fatalf("limiter counters not moving: %+v", after.RateLimit)
	}
	if after.RateLimit.RatePerSec != 1 || after.RateLimit.Burst != 2 {
		t.Fatalf("limiter config not echoed: %+v", after.RateLimit)
	}

	// The limiter families appear on the scrape once configured.
	exp := scrape(t, ts.URL)
	if exp.types["dk_ratelimit_limited_total"] != "counter" {
		t.Fatal("dk_ratelimit_limited_total missing from /metrics")
	}
	if exp.samples["dk_ratelimit_limited_total"] == 0 {
		t.Fatal("dk_ratelimit_limited_total stuck at zero after a 429")
	}
	_ = srv
}

// getJSONAs is getJSON with an X-Client-Id, so stats reads in limiter
// tests spend their own budget, not the budget under test.
func getJSONAs(t *testing.T, url, clientID string, out any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-Id", clientID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d; body: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestRateLimitDisabledByDefault: no RatePerSec, no limiter — hammering
// a route never 429s and stats carry no rate_limit block.
func TestRateLimitDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i := 0; i < 50; i++ {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatal("429 with no rate limit configured")
		}
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	if stats.RateLimit != nil {
		t.Fatalf("rate_limit block present without a limiter: %+v", stats.RateLimit)
	}
}

// TestThrottledSplitFromErrors: a queue-full 429 increments the route's
// throttled counter, not its error counter, and carries Retry-After.
func TestThrottledSplitFromErrors(t *testing.T) {
	srv, ts := newTestServer(t, Options{JobRunners: 1, JobQueue: 1})

	var er ExtractResponse
	postJSON(t, ts.URL+"/v1/extract?d=2", "text/plain", pawEdges, http.StatusOK, &er)

	// Wedge the engine directly: a blocking job occupies the single
	// runner, more fill the one-slot batch queue, so the next HTTP
	// submission deterministically hits queue_full (the generated jobs
	// finish far too fast for HTTP-level racing to fill it).
	release := make(chan struct{})
	var wedged []*Job
	for {
		j, err := srv.jobs.Submit("block", ClassBatch, nil, func(func(any)) (any, StreamFunc, error) {
			<-release
			return nil, nil, nil
		})
		if err != nil {
			break
		}
		wedged = append(wedged, j)
		if len(wedged) > 3 {
			t.Fatal("engine accepted more jobs than 1 running + 1 queued allows")
		}
	}
	defer func() {
		close(release)
		for _, j := range wedged {
			waitJob(t, j)
		}
	}()

	body := fmt.Sprintf(`{"source": {"hash": %q}, "d": 2, "replicas": 2, "seed": 1}`, er.Graph.Hash)
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("generate against a wedged engine got %d, want 429; body: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("queue-full 429 missing Retry-After")
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Code != CodeQueueFull {
		t.Fatalf("queue-full envelope = %s (err %v), want code %q", raw, err, CodeQueueFull)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", http.StatusOK, &stats)
	rs := stats.Routes["POST /v1/generate"]
	if rs.Throttled == 0 {
		t.Fatalf("429s not counted as throttled: %+v", rs)
	}
	if rs.Errors != 0 {
		t.Fatalf("backpressure 429s leaked into route errors: %+v", rs)
	}
	if stats.Jobs.Failed != 0 {
		t.Fatalf("queue-full rejections counted as job failures: %+v", stats.Jobs)
	}
	if stats.Jobs.Rejected == 0 {
		t.Fatalf("queue-full not counted as rejected: %+v", stats.Jobs)
	}
}
