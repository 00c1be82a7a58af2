// Package server implements hgedd, the long-lived HGED/HEP query service:
// a stdlib-only net/http JSON API over a registry of named, MVCC-versioned
// hypergraphs. Graphs mutate through copy-on-write batches (POST
// /v1/graphs/{name}/edges) that publish new generations atomically while
// readers keep pinned snapshots; derived state — σ predictors, memoized
// stats — is invalidated incrementally per generation, and the
// similarity-search index row of the graph is replaced in the same write. Synchronous queries (stats, node distance with edit path
// explanations, memoized σ, similarity search) run under a shared
// concurrency-limiting semaphore with per-request timeouts; HEP prediction
// runs are asynchronous jobs on a bounded worker pool with per-job
// cancellation and deadlines. Request counters, latency histograms, solver
// expansions, σ-cache statistics and MVCC version counters are served from
// GET /metrics.
//
// The package wraps only the public hged facade; cmd/hgedd is the daemon
// entry point.
package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"runtime"
	"time"
)

// Config tunes the server. The zero value is completed by New.
type Config struct {
	// SyncLimit caps concurrently executing synchronous queries (distance,
	// sigma, search, uploads). 0 defaults to 2×GOMAXPROCS.
	SyncLimit int
	// RequestTimeout bounds the response latency of each synchronous
	// request; the reply is 504 when exceeded. 0 defaults to 30s.
	RequestTimeout time.Duration
	// Workers is the HEP job worker pool size. 0 defaults to 2.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs. 0
	// defaults to 16.
	QueueDepth int
	// JobRetention caps how many finished (done, failed or cancelled) jobs
	// stay inspectable via GET /v1/jobs; the oldest terminal jobs are
	// evicted as new ones are submitted. Queued and running jobs are never
	// evicted. 0 defaults to 256.
	JobRetention int
	// MaxUploadBytes bounds graph upload request bodies. 0 defaults to
	// 32 MiB.
	MaxUploadBytes int64
	// Logger receives one structured line per request. Nil discards.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.SyncLimit <= 0 {
		c.SyncLimit = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 256
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	return c
}

// Server ties the graph registry, the job pool, the metrics and the
// synchronous-query semaphore together behind one http.Handler.
type Server struct {
	cfg     Config
	reg     *Registry
	jobs    *JobManager
	metrics *Metrics
	sem     chan struct{}
	handler http.Handler
}

// New builds a Server. Load graphs through Registry() before serving, or
// let clients upload them via POST /v1/graphs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		metrics: newMetrics(),
		sem:     make(chan struct{}, cfg.SyncLimit),
	}
	s.jobs = newJobManager(s.reg, s.metrics, cfg)
	s.handler = s.routes()
	return s
}

// Registry exposes the graph registry (for startup loading and tests).
func (s *Server) Registry() *Registry { return s.reg }

// InitSearchIndex does nothing and returns nil; it is kept for callers
// written when the search index was built lazily. The registry now keeps
// the index current inside every write, so there is nothing to build.
func (s *Server) InitSearchIndex(ctx context.Context) error { return nil }

// Jobs exposes the job manager (for tests and draining).
func (s *Server) Jobs() *JobManager { return s.jobs }

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Close gracefully shuts the server's job pool down: it stops accepting
// jobs, drains queued and running jobs until ctx expires, then cancels the
// stragglers. The HTTP listener itself is the caller's to shut down
// (http.Server.Shutdown), typically before calling Close.
func (s *Server) Close(ctx context.Context) error { return s.jobs.Close(ctx) }

// routes builds the ServeMux. Go 1.22 method+wildcard patterns route; each
// route is wrapped with logging + metrics, and sync routes additionally
// acquire the semaphore and a response deadline.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	type route struct {
		pattern string
		sync    bool
		h       http.HandlerFunc
	}
	for _, rt := range []route{
		{"GET /v1/graphs", false, s.handleListGraphs},
		{"POST /v1/graphs", true, s.handleUploadGraph},
		{"DELETE /v1/graphs/{name}", false, s.handleDeleteGraph},
		{"GET /v1/graphs/{name}/stats", false, s.handleGraphStats},
		{"POST /v1/graphs/{name}/edges", true, s.handleMutateGraph},
		{"DELETE /v1/graphs/{name}/edges/{id}", true, s.handleRemoveEdge},
		{"POST /v1/graphs/{name}/distance", true, s.handleDistance},
		{"POST /v1/graphs/{name}/sigma", true, s.handleSigma},
		{"POST /v1/graphs/{name}/predict", false, s.handlePredict},
		{"POST /v1/search", true, s.handleSearch},
		{"GET /v1/jobs", false, s.handleListJobs},
		{"GET /v1/jobs/{id}", false, s.handleGetJob},
		{"DELETE /v1/jobs/{id}", false, s.handleCancelJob},
		{"GET /metrics", false, s.handleMetrics},
		{"GET /healthz", false, s.handleHealthz},
	} {
		mux.Handle(rt.pattern, s.instrument(rt.pattern, rt.sync, rt.h))
	}
	return mux
}

// statusRecorder captures the response status for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with structured request logging and metrics.
// Synchronous query routes additionally pass through the shared
// concurrency semaphore and a response deadline: past the deadline the
// client gets 503 while the computation finishes in the background, its
// semaphore slot held until it does (so abandoned work never lets the
// concurrency limit be exceeded) and its cost bounded by the expansion
// caps.
func (s *Server) instrument(pattern string, syncRoute bool, h http.HandlerFunc) http.Handler {
	var inner http.Handler = h
	if syncRoute {
		inner = s.limited(inner)
		inner = http.TimeoutHandler(inner, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		inner.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		d := time.Since(start)
		s.metrics.observe(pattern, rec.status, d)
		s.cfg.Logger.Printf("method=%s path=%s status=%d duration=%s remote=%s",
			r.Method, r.URL.Path, rec.status, d.Round(time.Microsecond), r.RemoteAddr)
	})
}

// limited admits a request once a semaphore slot frees up; a request whose
// deadline expires while waiting is turned away with 503.
func (s *Server) limited(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "server saturated: %v", r.Context().Err())
		}
	})
}
