// Package dkapi defines the wire types of the dK topology API: the one
// vocabulary shared by the HTTP service (internal/service), the Go
// facade (pkg/dk), the HTTP client SDK (pkg/dkclient), and every CLI
// tool. A request built against these types means the same thing
// whether it is executed in-process or POSTed to a dkserved instance —
// which is what makes local and remote execution byte-identical.
//
// The package holds data only: no I/O, no handlers, no computation.
// See docs/API.md for the HTTP reference built on these types.
package dkapi

import (
	"repro/internal/dk"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/subgraphs"
	"repro/internal/trace"
)

// Version is the single authoritative release string of the dK toolkit.
// Every binary reports it through its -version flag and the HTTP service
// carries it in the stats and health responses, so one constant answers
// "which build is this?" across the whole surface.
const Version = "0.2.0"

// GraphRef identifies a graph in a request body, by exactly one of:
//
//   - Hash: the content address of a previously uploaded graph;
//   - Edges: an inline edge list ("u v" per line);
//   - Dataset: a built-in dataset name (optional Seed/N synthesis
//     parameters);
//   - Step: inside a pipeline, the named output of an earlier step
//     (optional Replica index into a generate step's ensemble);
//   - File: a local path, resolved by CLI tools before the request
//     leaves the process — servers reject it.
type GraphRef struct {
	Hash    string `json:"hash,omitempty"`
	Edges   string `json:"edges,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	N       int    `json:"n,omitempty"`
	// Step references the graph output of an earlier pipeline step;
	// Replica selects one graph of a generate/randomize ensemble
	// (default 0). Only valid inside POST /v1/pipelines.
	Step    string `json:"step,omitempty"`
	Replica int    `json:"replica,omitempty"`
	// File is client-side sugar: dkctl and the SDK inline the file's
	// edge list before submitting. A server receiving a file reference
	// rejects it with bad_request.
	File string `json:"file,omitempty"`
}

// GraphInfo describes a resolved graph in responses.
type GraphInfo struct {
	Hash string `json:"hash"`
	N    int    `json:"n"`
	M    int    `json:"m"`
}

// ExtractResponse is the body of a successful POST /v1/extract. Trace
// carries the request's span records when the caller opted in with
// ?trace=1 (see docs/OBSERVABILITY.md).
type ExtractResponse struct {
	Graph   GraphInfo        `json:"graph"`
	Cached  bool             `json:"cached"`
	Profile *dk.Profile      `json:"profile"`
	Summary *metrics.Summary `json:"summary,omitempty"`
	Trace   []TraceRecord    `json:"trace,omitempty"`
}

// GenerateRequest is the body of POST /v1/generate.
type GenerateRequest struct {
	// Source is the topology to extract the target distribution from
	// (and, for method "randomize", the rewiring start point).
	Source GraphRef `json:"source"`
	// D is the dK depth (0..3, default 2).
	D *int `json:"d,omitempty"`
	// Method is one of randomize, stochastic, pseudograph, matching,
	// targeting (default randomize).
	Method string `json:"method,omitempty"`
	// Replicas is the ensemble size (default 1, bounded by the server's
	// MaxReplicas option).
	Replicas int `json:"replicas,omitempty"`
	// Seed drives all randomness; replica i derives its own independent
	// stream, so the ensemble is a pure function of (seed, replicas).
	Seed int64 `json:"seed,omitempty"`
	// Compare adds the D_d distance of every replica to the source
	// profile in the job result.
	Compare bool `json:"compare,omitempty"`
}

// ReplicaInfo summarizes one generated replica in a job result.
type ReplicaInfo struct {
	Index    int      `json:"index"`
	N        int      `json:"n"`
	M        int      `json:"m"`
	Distance *float64 `json:"distance,omitempty"`
}

// GenerateResult is the result summary of a finished generate job; the
// replica edge lists themselves stream from /v1/jobs/{id}/result.
type GenerateResult struct {
	Source   GraphInfo     `json:"source"`
	D        int           `json:"d"`
	Method   string        `json:"method"`
	Seed     int64         `json:"seed"`
	Replicas []ReplicaInfo `json:"replicas"`
}

// JobAccepted is the 202 body of POST /v1/generate and POST
// /v1/pipelines.
type JobAccepted struct {
	JobID     string `json:"job_id"`
	StatusURL string `json:"status_url"`
}

// CompareRequest is the body of POST /v1/compare.
type CompareRequest struct {
	A GraphRef `json:"a"`
	B GraphRef `json:"b"`
	// D is the maximum dK depth to compare (0..3, default 3); D_d is
	// reported for every d up to it.
	D *int `json:"d,omitempty"`
	// Spectral includes the Laplacian spectrum bounds in the summaries.
	Spectral bool `json:"spectral,omitempty"`
	// Sample bounds the BFS sources for the distance metrics (0 =
	// exact, as in /v1/extract's ?sample); essential for large graphs,
	// where exact all-pairs distances are O(N·M).
	Sample int `json:"sample,omitempty"`
	// Seed drives Lanczos and any sampled metrics (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// DistanceEntry is one D_d value in a compare response.
type DistanceEntry struct {
	D     int     `json:"d"`
	Value float64 `json:"value"`
}

// CompareResponse is the body of a successful POST /v1/compare. Trace
// carries the request's span records when the caller opted in with
// ?trace=1.
type CompareResponse struct {
	A         GraphInfo       `json:"a"`
	B         GraphInfo       `json:"b"`
	Distances []DistanceEntry `json:"distances"`
	SummaryA  metrics.Summary `json:"summary_a"`
	SummaryB  metrics.Summary `json:"summary_b"`
	Trace     []TraceRecord   `json:"trace,omitempty"`
}

// DatasetInfo describes one built-in dataset on GET /v1/datasets.
type DatasetInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Params      []string `json:"params,omitempty"`
	Slow        bool     `json:"slow,omitempty"`
}

// CacheStats counts cache traffic. Hits and Misses count intern calls
// that found (respectively created) an entry; Extractions counts actual
// dK-extraction runs, which a repeated request for an already-profiled
// topology must not increase. The Disk* counters instrument the
// persistent tier.
type CacheStats struct {
	Entries           int   `json:"entries"`
	MaxEntries        int   `json:"max_entries"`
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Evictions         int64 `json:"evictions"`
	Extractions       int64 `json:"extractions"`
	DiskTier          bool  `json:"disk_tier"`
	DiskHits          int64 `json:"disk_hits"`
	DiskMisses        int64 `json:"disk_misses"`
	DiskGraphWrites   int64 `json:"disk_graph_writes"`
	DiskProfileWrites int64 `json:"disk_profile_writes"`
}

// EngineStats counts job-engine traffic. MaxRunning is the high-water
// mark of concurrently executing jobs; Recovered counts jobs re-queued
// from the journal of a previous process at startup. Queued is the
// total backlog; QueuedInteractive/QueuedBatch split it by priority
// class (see JobClass).
type EngineStats struct {
	Runners           int   `json:"runners"`
	Queued            int   `json:"queued"`
	QueuedInteractive int   `json:"queued_interactive"`
	QueuedBatch       int   `json:"queued_batch"`
	Running           int   `json:"running"`
	MaxRunning        int   `json:"max_running"`
	Completed         int64 `json:"completed"`
	Failed            int64 `json:"failed"`
	Rejected          int64 `json:"rejected"`
	Recovered         int64 `json:"recovered"`
}

// RouteStat is the per-route traffic record in GET /v1/stats: request
// count, error count, and latency aggregates. Throttled counts 429
// backpressure answers (rate limit, full job queue) separately — they
// are flow control, not failures, so they stay out of Errors and out
// of any error-budget arithmetic built on it.
type RouteStat struct {
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	Throttled int64   `json:"throttled,omitempty"`
	TotalMS   float64 `json:"total_ms"`
	MaxMS     float64 `json:"max_ms"`
	LastMS    float64 `json:"last_ms"`
	LastCode  int     `json:"last_code"`
	InFlight  int64   `json:"in_flight,omitempty"`
	BytesSent int64   `json:"bytes_sent"`
}

// RateLimitStats instruments the per-client token-bucket limiter in
// GET /v1/stats (present only when the server runs with a rate limit).
type RateLimitStats struct {
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	Clients    int     `json:"clients"`
	Allowed    int64   `json:"allowed"`
	Limited    int64   `json:"limited"`
}

// PhaseStat aggregates the wall-clock cost of one pipeline execution
// phase in GET /v1/stats: cumulative count, total milliseconds, and the
// slowest single observation.
type PhaseStat struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// StatsResponse is the body of GET /v1/stats. Store is present only when
// the server runs with a persistent data directory; Routes is keyed by
// mux pattern (e.g. "POST /v1/extract"); Phases is keyed by "op.phase"
// (e.g. "generate.construct" — the §4.1.4 construction hot path) and
// appears once the server has executed at least one pipeline step.
// Scenarios is keyed by scenario kind (robustness, epidemic, routing)
// and appears once a netsim step has run.
type StatsResponse struct {
	Version       string               `json:"version"`
	GoVersion     string               `json:"go_version"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	Workers       int                  `json:"workers"`
	Cache         CacheStats           `json:"cache"`
	Jobs          EngineStats          `json:"jobs"`
	Routes        map[string]RouteStat `json:"routes,omitempty"`
	Phases        map[string]PhaseStat `json:"phases,omitempty"`
	Scenarios     map[string]PhaseStat `json:"scenarios,omitempty"`
	RateLimit     *RateLimitStats      `json:"rate_limit,omitempty"`
	Store         *store.Stats         `json:"store,omitempty"`
}

// HealthResponse is the body of GET /v1/healthz: pure liveness, 200
// whenever the process can serve HTTP at all.
type HealthResponse struct {
	Status  string `json:"status"` // always "ok"
	Version string `json:"version"`
}

// ReadyResponse is the body of GET /v1/readyz. Ready is false (and the
// status 503) while the server is draining for shutdown or a dependency
// check fails; Checks maps each dependency to "ok" or its failure.
type ReadyResponse struct {
	Ready  bool              `json:"ready"`
	Checks map[string]string `json:"checks"`
}

// ErrorResponse is the uniform error envelope of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Error codes used in ErrorResponse.Code.
const (
	CodeBadRequest  = "bad_request"  // malformed input or parameters
	CodeNotFound    = "not_found"    // unknown hash, job, or dataset
	CodeTooLarge    = "too_large"    // body or graph exceeds a limit
	CodeQueueFull   = "queue_full"   // job queue at capacity
	CodeRateLimited = "rate_limited" // per-client token bucket exhausted
	CodeConflict    = "conflict"     // job not in a state serving the request
	CodeUnavailable = "unavailable"  // server draining or dependency down
	CodeInternal    = "internal"     // unexpected server-side failure
)

// Census is re-exported so SDK users can name the 3K wedge/triangle
// census type appearing in pipeline step results without importing the
// internal tree. Its Wedges and Triangles are arrays of {Key, Count}
// sorted by class key — wedges by (KCenter, KLo, KHi), triangles by
// (K1, K2, K3) — with unique keys and nonzero counts; Census.Wedge and
// Census.Triangle look a class up. The key fields (KLo, KCenter, KHi and
// K1, K2, K3) are int32 degrees, which makes each entry 24 bytes; the
// decoders reject a degree outside [0, math.MaxInt32]. The JSON form is
// the sorted record arrays it has always been.
type Census = subgraphs.Census

// Profile, Summary are likewise re-exported for SDK users. A Profile's
// Census is the sorted-array Census above.
type Profile = dk.Profile

// Summary is the scalar metric suite of a graph's giant component.
type Summary = metrics.Summary

// TraceRecord is one line of an encoded execution trace — the wire form
// of GET /v1/jobs/{id}/trace and of the Trace field embedded by
// ?trace=1 on the synchronous routes. See internal/trace for the
// record vocabulary ("trace" header, "span", "event").
type TraceRecord = trace.Record

// Int returns a pointer to v, for the optional depth fields (D) of
// request types: a nil depth selects the endpoint's documented default,
// while Int(0) explicitly requests depth 0.
func Int(v int) *int { return &v }

// Int64 returns a pointer to v, for optional int64 fields (seeds)
// where 0 is a meaningful value distinct from "unset".
func Int64(v int64) *int64 { return &v }
