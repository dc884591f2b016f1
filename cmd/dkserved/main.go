// Command dkserved is the dK topology service: a long-running HTTP
// server exposing the full pipeline of the paper — profile extraction,
// dK-random graph generation, topology comparison, and declarative
// multi-step pipelines — with a content-addressed profile cache and an
// asynchronous job queue.
//
//	dkserved -addr :8080 -workers 8 -data-dir /var/lib/dkserved
//
// With -data-dir set, the cache gains a persistent disk tier (uploaded
// graphs and extracted profiles survive restarts as binary artifacts)
// and the job engine journals every state transition, re-queuing
// incomplete jobs on startup; see docs/STORAGE.md. Empty -data-dir keeps
// the historical in-memory behavior.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/extract            edge list → dK-profile (+ metrics)
//	POST /v1/generate           profile/graph → replica ensemble (async)
//	POST /v1/pipelines          declarative multi-step workflow (async)
//	GET  /v1/jobs/{id}          poll job status, progress, result summary
//	GET  /v1/jobs/{id}/result   stream replica edge lists
//	GET  /v1/jobs/{id}/trace    fetch a finished job's execution trace (JSONL)
//	POST /v1/compare            D_d distances + metric side-by-side
//	GET  /v1/graphs/{hash}      does the server know this topology?
//	GET  /v1/datasets           built-in reference topologies
//	GET  /v1/stats              version, cache/job/route counters
//	GET  /v1/healthz            liveness
//	GET  /v1/readyz             readiness (store + job engine + drain)
//	GET  /metrics               Prometheus text exposition of the stats
//
// With -rate-limit set, each client (X-Client-Id header, else remote
// IP) gets a token bucket of that many requests per second; exhausted
// clients receive 429 with Retry-After. Health probes and /metrics are
// exempt. Interactive work (extract, read-only pipelines) is prioritized
// over batch generation in the job queue regardless of rate limiting.
//
// On SIGTERM/SIGINT the server drains gracefully: /v1/readyz flips to
// 503 so load balancers stop routing to it, the listener shuts down
// once in-flight requests finish, and running jobs are allowed to
// complete before the process exits (queued-but-unstarted jobs are
// failed and journaled, so nothing is silently lost).
//
// The -workers flag bounds the process-wide worker budget shared by the
// job engine and every parallel metric sweep; as everywhere in this
// repository, worker count never changes results, only wall-clock time.
//
// Profiling: -pprof (off by default) additionally mounts the standard
// net/http/pprof handlers under /debug/pprof/ on the same listener —
// CPU/heap/goroutine profiles of a live server, e.g.
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//
// The endpoints expose internals and cost CPU while profiling, so keep
// the flag off outside debugging sessions (see docs/PERF.md). Coarser
// always-on timings — cumulative per-phase generation cost — are served
// unconditionally in the "phases" section of GET /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/store"
	"repro/pkg/dkapi"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "process-wide worker budget shared by jobs and metric sweeps")
	dataDir := flag.String("data-dir", "", "persistent artifact store directory (empty = in-memory only; see docs/STORAGE.md)")
	cacheEntries := flag.Int("cache", 64, "content-addressed graph cache capacity (entries)")
	maxBody := flag.Int64("max-body", 32<<20, "request body size limit in bytes")
	maxReplicas := flag.Int("max-replicas", 128, "replica cap per generate job")
	maxSteps := flag.Int("max-pipeline-steps", 32, "step cap per pipeline request")
	maxPipelineReplicas := flag.Int("max-pipeline-replicas", 512, "summed replica cap across one pipeline's generate steps")
	jobRunners := flag.Int("job-runners", 0, "concurrent job executors (0 = worker budget)")
	jobQueue := flag.Int("job-queue", 64, "queued-job bound (full queue returns 429)")
	jobRetain := flag.Int("job-retain", 256, "finished jobs retained for polling")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate in req/s (0 = no rate limiting)")
	rateBurst := flag.Int("rate-burst", 0, "per-client burst capacity (0 = 2×rate)")
	accessLog := flag.Bool("access-log", true, "log one structured line per request")
	tracing := flag.Bool("tracing", true, "record execution traces for jobs and ?trace=1 requests (see docs/OBSERVABILITY.md)")
	enablePprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (debugging only)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "maximum time to wait for in-flight HTTP requests on shutdown")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if cli.Version("dkserved", *showVersion) {
		return
	}
	parallel.SetWorkers(*workers)

	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			log.Fatalf("dkserved: %v", err)
		}
		defer st.Close()
		if !st.Exclusive() {
			log.Fatalf("dkserved: data dir %s is in use by another process (journal lock held)", *dataDir)
		}
		stats := st.Stats()
		log.Printf("dkserved: artifact store %s: %d graphs, %d profiles", *dataDir, stats.Graphs, stats.Profiles)
	}

	opts := service.Options{
		CacheEntries:        *cacheEntries,
		MaxBodyBytes:        *maxBody,
		MaxReplicas:         *maxReplicas,
		MaxPipelineSteps:    *maxSteps,
		MaxPipelineReplicas: *maxPipelineReplicas,
		JobRunners:          *jobRunners,
		JobQueue:            *jobQueue,
		JobRetain:           *jobRetain,
		RatePerSec:          *rateLimit,
		RateBurst:           *rateBurst,
		Store:               st,
		DisableTracing:      !*tracing,
	}
	if *accessLog {
		opts.AccessLog = log.Default()
	}
	srv := service.New(opts)
	if st != nil {
		if recovered := srv.JobStats().Recovered; recovered > 0 {
			log.Printf("dkserved: recovered %d incomplete jobs from the journal", recovered)
		}
	}

	// The service handler stays self-contained; pprof, when requested,
	// wraps it in an outer mux instead of leaking the debug routes into
	// the service's own routing (or the global DefaultServeMux).
	var handler http.Handler = srv
	if *enablePprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		log.Printf("dkserved: pprof enabled on /debug/pprof/ (debugging only)")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Drain sequence: advertise not-ready first (load balancers stop
		// routing), then stop the listener once in-flight requests
		// finish, then let running jobs complete. Queued jobs that never
		// started are failed and journaled by Close, so a restart with
		// the same -data-dir recovers nothing it shouldn't.
		log.Printf("dkserved: draining (readyz now 503)")
		srv.StartDraining()
		shutdownCtx, done := context.WithTimeout(context.Background(), *drainTimeout)
		defer done()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("dkserved %s listening on %s (workers=%d)", dkapi.Version, *addr, parallel.Workers())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("dkserved: %v", err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// HTTP drain, then for running jobs.
	cancel()
	<-drained
	start := time.Now()
	jobs := srv.JobStats()
	if jobs.Running > 0 || jobs.Queued > 0 {
		log.Printf("dkserved: waiting for %d running jobs (%d queued will be failed)", jobs.Running, jobs.Queued)
	}
	srv.Close()
	log.Printf("dkserved: drained in %v, bye", time.Since(start).Round(time.Millisecond))
}
