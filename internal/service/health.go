package service

import (
	"net/http"

	"repro/pkg/dkapi"
)

// handleHealthz implements GET /v1/healthz: pure liveness. If this
// handler runs at all, the process is alive — no dependency is
// consulted, so a wedged store can never make an orchestrator kill a
// pod that is merely degraded.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, dkapi.HealthResponse{Status: "ok", Version: dkapi.Version})
}

// handleReadyz implements GET /v1/readyz: readiness to take traffic.
// Not ready (503) while draining for shutdown, after the job engine
// closed, or when the artifact store's directory stopped being
// reachable. Each dependency reports individually so operators see
// which check failed.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	checks := map[string]string{}
	ready := true
	if s.draining.Load() {
		checks["server"] = "draining"
		ready = false
	} else {
		checks["server"] = "ok"
	}
	if s.jobs.Accepting() {
		checks["jobs"] = "ok"
	} else {
		checks["jobs"] = "job engine closed"
		ready = false
	}
	if s.store != nil {
		if err := s.store.Ping(); err != nil {
			checks["store"] = err.Error()
			ready = false
		} else {
			checks["store"] = "ok"
		}
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, dkapi.ReadyResponse{Ready: ready, Checks: checks})
}

// rateLimitExempt reports whether a request bypasses per-client rate
// limiting. Liveness/readiness probes and the Prometheus scrape are
// exempt: an orchestrator whose health checks get 429 restarts healthy
// pods, and a monitoring gap is exactly when scrapes must keep working.
func rateLimitExempt(r *http.Request) bool {
	switch r.URL.Path {
	case "/v1/healthz", "/v1/readyz", "/metrics":
		return true
	}
	return false
}

// StartDraining flips /v1/readyz to 503 so load balancers stop sending
// new traffic while in-flight requests and running jobs finish.
// dkserved calls it on SIGTERM, before shutting the listener down;
// requests already in the house are unaffected.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining was called.
func (s *Server) Draining() bool { return s.draining.Load() }
