package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/pkg/dkapi"
)

// The wire vocabulary of the service lives in pkg/dkapi so the HTTP
// layer, the Go facade (pkg/dk), the client SDK (pkg/dkclient), and the
// CLIs all speak the same types. The aliases below keep the historical
// service names working.
type (
	// GraphRef identifies a graph in a request body; see dkapi.GraphRef.
	GraphRef = dkapi.GraphRef
	// GraphInfo describes a resolved graph in responses.
	GraphInfo = dkapi.GraphInfo
	// ExtractResponse is the body of a successful POST /v1/extract.
	ExtractResponse = dkapi.ExtractResponse
	// GenerateRequest is the body of POST /v1/generate.
	GenerateRequest = dkapi.GenerateRequest
	// ReplicaInfo summarizes one generated replica in a job result.
	ReplicaInfo = dkapi.ReplicaInfo
	// GenerateResult is the result summary of a finished generate job.
	GenerateResult = dkapi.GenerateResult
	// GenerateAccepted is the 202 body of POST /v1/generate.
	GenerateAccepted = dkapi.JobAccepted
	// CompareRequest is the body of POST /v1/compare.
	CompareRequest = dkapi.CompareRequest
	// DistanceEntry is one D_d value in a compare response.
	DistanceEntry = dkapi.DistanceEntry
	// CompareResponse is the body of a successful POST /v1/compare.
	CompareResponse = dkapi.CompareResponse
	// StatsResponse is the body of GET /v1/stats.
	StatsResponse = dkapi.StatsResponse
	// ErrorResponse is the uniform error envelope of every non-2xx
	// response.
	ErrorResponse = dkapi.ErrorResponse
	// DatasetInfo describes one built-in dataset on GET /v1/datasets.
	DatasetInfo = dkapi.DatasetInfo
)

// Error codes used in ErrorResponse.Code.
const (
	CodeBadRequest  = dkapi.CodeBadRequest
	CodeNotFound    = dkapi.CodeNotFound
	CodeTooLarge    = dkapi.CodeTooLarge
	CodeQueueFull   = dkapi.CodeQueueFull
	CodeRateLimited = dkapi.CodeRateLimited
	CodeConflict    = dkapi.CodeConflict
	CodeUnavailable = dkapi.CodeUnavailable
	CodeInternal    = dkapi.CodeInternal
)

// writeJSON writes v with the given status. Encoding failures after the
// status line is out cannot be reported to the client and are dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}

// classifyGraphError maps a graph-input failure to its API error: limit
// violations (ReadLimits or a capped request body) are 413, everything
// else is a 400 parse error. This is the single source of that policy —
// both the direct-body and graph-reference paths go through it.
func classifyGraphError(err error) *apiError {
	var mbe *http.MaxBytesError
	if errors.Is(err, graph.ErrLimit) || errors.As(err, &mbe) {
		return &apiError{http.StatusRequestEntityTooLarge, CodeTooLarge, err.Error()}
	}
	return &apiError{http.StatusBadRequest, CodeBadRequest, err.Error()}
}

// writeGraphError writes a graph-input failure with classifyGraphError's
// status mapping.
func writeGraphError(w http.ResponseWriter, err error) {
	writeAPIError(w, classifyGraphError(err))
}

// readLimits are the per-graph parse bounds from the server options.
func (s *Server) readLimits() graph.ReadLimits {
	return graph.ReadLimits{
		MaxBytes: s.opts.MaxBodyBytes,
		MaxNodes: s.opts.MaxNodes,
		MaxEdges: s.opts.MaxEdges,
	}
}

// resolveRef turns a GraphRef into a cache entry. Inline edge lists and
// datasets are parsed/synthesized and interned; hashes must already be
// cached. Step references are a pipeline-only construct and file
// references are client-side sugar — both are rejected here. The error
// is pre-classified via apiError.
func (s *Server) resolveRef(ref GraphRef) (*Entry, error) {
	if ref.Step != "" {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest,
			"step references are only valid inside pipeline steps"}
	}
	if ref.File != "" {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest,
			"file references are resolved client-side; inline the edge list or upload it first"}
	}
	set := 0
	for _, ok := range []bool{ref.Hash != "", ref.Edges != "", ref.Dataset != ""} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return nil, &apiError{http.StatusBadRequest, CodeBadRequest,
			"graph reference must set exactly one of hash, edges, dataset"}
	}
	switch {
	case ref.Hash != "":
		e := s.cache.Get(Hash(ref.Hash))
		if e == nil {
			return nil, &apiError{http.StatusNotFound, CodeNotFound,
				fmt.Sprintf("hash %s not in cache (evicted or never uploaded); re-upload the edge list", ref.Hash)}
		}
		return e, nil
	case ref.Edges != "":
		g, labels, err := graph.ReadEdgeListLimit(strings.NewReader(ref.Edges), s.readLimits())
		if err != nil {
			return nil, classifyGraphError(err)
		}
		if g.N() == 0 {
			return nil, &apiError{http.StatusBadRequest, CodeBadRequest, ErrEmptyEdges.Error()}
		}
		e, _ := s.cache.Intern(g, labels)
		return e, nil
	default:
		g, err := s.datasetGraph(ref.Dataset, ref.Seed, ref.N)
		if err != nil {
			return nil, err // datasetGraph pre-classifies its errors
		}
		e, _ := s.cache.Intern(g, nil)
		return e, nil
	}
}

// ErrEmptyEdges rejects an inline edge-list reference with no edges, as
// an empty upload to /v1/extract is rejected. pkg/dk's local backend
// returns it too, so local and remote runs agree.
var ErrEmptyEdges = errors.New("empty edge list; an inline edges reference needs at least one 'u v' line")

// apiError carries a pre-classified HTTP status and code with a message.
type apiError struct {
	status int
	code   string
	msg    string
}

// Error implements error.
func (e *apiError) Error() string { return e.msg }

// writeAPIError writes err as its carried status if it is an apiError,
// or as a 500 otherwise.
func writeAPIError(w http.ResponseWriter, err error) {
	var ae *apiError
	if errors.As(err, &ae) {
		writeError(w, ae.status, ae.code, "%s", ae.msg)
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
}

// info builds the response descriptor of a cache entry.
func info(e *Entry) GraphInfo {
	n, m := e.Size()
	return GraphInfo{Hash: string(e.Hash()), N: n, M: m}
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// queryInt64 parses an int64 query parameter with a default.
func queryInt64(r *http.Request, name string, def int64) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// queryBool parses a boolean query parameter ("1"/"true" = true).
func queryBool(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || strings.EqualFold(v, "true")
}
