// Package serve is the simulation-as-a-service layer behind the worksimd
// daemon: a JSON/REST front on the simulation engine (stdlib net/http only)
// with asynchronous run and sweep jobs, live Server-Sent-Event streaming of
// the typed event feed, static API-key authentication, per-key token-bucket
// rate limiting, a concurrent-job quota, structured request logging and
// graceful drain.
//
// The package deliberately reuses the engine's existing seams instead of
// inventing new ones: a submitted spec goes through scenario.Parse/Get and
// the scenario compiler the worksim façade uses, over a security bundle the
// server commissions once and shares (key material never reaches an
// observable byte), so a daemon run's report JSON is byte-identical to an
// in-process worksim.Open(...).Run at the same (spec, profile, seed,
// horizon); the SSE payload is exactly the `worksite-sim -trace` JSON-lines
// encoding (internal/tracefmt); and sweeps fan out on the campaign engine's
// bounded pool with its cancellation semantics.
//
// Lifecycle: runs and sweeps are one kind of job, with one executor and one
// set of get/list/cancel handlers. A POST takes a quota slot, registers a
// job and returns its ID at once; the job runs on its own goroutine, and a
// run feeds a bounded in-memory event ring that any number of SSE consumers
// replay at their own pace (slow consumers lose evicted events, they never
// stall the tick loop). DELETE cancels through the job's context —
// cancellation lands between control ticks, like every other context in
// the repo. On drain the server stops accepting work, waits up to a
// deadline for every submission it already accepted (counted from the slot
// it took), then cancels the root context all jobs derive from and exits
// cleanly.
//
// This package reads the wall clock (rate limiting, request logs, drain
// deadlines) — serving infrastructure, never simulation state: the
// simulated runs it hosts stay byte-reproducible.
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/worksite"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultRatePerSec is the per-key request refill rate.
	DefaultRatePerSec = 20.0
	// DefaultBurst is the per-key token-bucket capacity.
	DefaultBurst = 40
	// DefaultMaxConcurrentJobs bounds simultaneously active run+sweep jobs.
	DefaultMaxConcurrentJobs = 8
	// DefaultEventBuffer is the per-run SSE replay ring capacity, in events.
	DefaultEventBuffer = 4096
	// DefaultDrainTimeout bounds how long drain waits for in-flight jobs
	// before cancelling them.
	DefaultDrainTimeout = 15 * time.Second
	// DefaultSeed and DefaultHorizon mirror the worksim façade defaults so
	// a daemon run and a worksim.Open run agree without options.
	DefaultSeed    int64 = 42
	DefaultHorizon       = 10 * time.Minute
	// maxRequestBody bounds request bodies (a scenario spec is ~1 KiB).
	maxRequestBody = 1 << 20
	// maxSimDuration caps a run's horizonNs and a sweep's durationNs: one
	// simulated day, 144 times the default horizon.
	maxSimDuration = 24 * time.Hour
	// maxSweepRuns caps a sweep's scenarios × profiles × seeds.count cube.
	// The engine expands the seed range up front, so an unbounded count is
	// an unbounded allocation before the first run starts.
	maxSweepRuns = 10_000
	// maxParallel caps a sweep's worker pool.
	maxParallel = 256
	// maxSweepPoints caps a sampled sweep's timeseries: runs ×
	// ⌈durationNs / sampleNs⌉ TimePoints, all held until the sweep ends.
	maxSweepPoints = 1_000_000
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so a slow sender cannot hold a connection forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections that carry no request for
	// this long. No write timeout is set: SSE streams are long-lived writes.
	idleTimeout = 2 * time.Minute
)

// Config configures a Server. The zero value is serveable: no auth (every
// request accepted), default rate limits, quotas and buffers.
type Config struct {
	// Version is reported by GET /v1/version (the worksim façade version).
	Version string
	// APIKeys is the static key set. Empty disables authentication;
	// otherwise every request (except healthz/version) must present a key
	// via `Authorization: Bearer <key>` or `X-API-Key`.
	APIKeys []string
	// RatePerSec and Burst parameterise the per-key token bucket
	// (anonymous requests share one bucket). RatePerSec < 0 disables rate
	// limiting.
	RatePerSec float64
	Burst      int
	// MaxConcurrentJobs caps simultaneously active run+sweep jobs;
	// submissions beyond it are rejected with 429. < 0 disables the quota.
	MaxConcurrentJobs int
	// EventBuffer is the per-run SSE replay ring capacity in events. Slow
	// consumers that fall more than EventBuffer events behind lose the
	// evicted prefix (flagged with an SSE comment) instead of stalling the
	// simulation.
	EventBuffer int
	// DrainTimeout bounds how long Serve waits for in-flight jobs after
	// its context fires before cancelling them.
	DrainTimeout time.Duration
	// CacheDir, when non-empty, roots a content-addressed result cache
	// shared by every sweep the daemon runs: completed (scenario, profile,
	// seed) runs are stored there and repeated sweeps are served from disk,
	// with per-sweep cached-run counts reported in progress. A sweep sees
	// the runs stored before it started, not those of sweeps running
	// alongside it. Empty disables caching.
	CacheDir string
	// Logger receives structured request and job-lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// Now supplies wall-clock time for rate limiting and request timing;
	// nil uses time.Now. Injectable so tests can steer the token buckets.
	Now func() time.Time
}

// Server hosts the REST API over the simulation engine. Create one with
// New, mount Handler on any mux, or run ListenAndServe/Serve for the full
// lifecycle including graceful drain.
type Server struct {
	cfg  Config
	log  *slog.Logger
	now  func() time.Time
	auth *authenticator

	runs   *registry[*runJob]
	sweeps *registry[*sweepJob]

	// comm commissions the shared security bundles every run forks, once
	// per bundle for the server's lifetime.
	comm worksite.Commissioner

	// root is the context every job context derives from; stopJobs
	// cancels it at the drain deadline.
	root     context.Context
	stopJobs context.CancelFunc
	// active counts accepted submissions, from the slot a submit takes
	// until its job ends; drain waits for it to reach 0.
	active   atomic.Int64
	draining atomic.Bool

	handler http.Handler
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = DefaultRatePerSec
	}
	if cfg.Burst == 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = DefaultMaxConcurrentJobs
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = DefaultEventBuffer
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	if cfg.Now == nil {
		// Serving infrastructure reads the wall clock; simulation state
		// never does.
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		now:    cfg.Now,
		auth:   newAuthenticator(cfg.APIKeys, cfg.RatePerSec, cfg.Burst, cfg.Now),
		runs:   newRegistry[*runJob]("r", "run"),
		sweeps: newRegistry[*sweepJob]("w", "sweep"),
	}
	s.root, s.stopJobs = context.WithCancel(context.Background())
	s.handler = s.routes()
	return s
}

// routes assembles the API surface behind the auth, rate-limit and logging
// middleware.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/version", s.handleVersion)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", listJobs(s.runs))
	mux.HandleFunc("GET /v1/runs/{id}", getJob(s.runs))
	mux.HandleFunc("DELETE /v1/runs/{id}", cancelJob(s.log, s.runs))
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/sweeps", listJobs(s.sweeps))
	mux.HandleFunc("GET /v1/sweeps/{id}", getJob(s.sweeps))
	mux.HandleFunc("DELETE /v1/sweeps/{id}", cancelJob(s.log, s.sweeps))
	return s.logging(s.authenticate(routeErrors(mux)))
}

// Handler returns the server's HTTP handler (auth + rate limiting + logging
// included), for callers that own the http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether the server has stopped accepting new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveJobs returns the number of accepted run and sweep submissions whose
// jobs have not ended yet.
func (s *Server) ActiveJobs() int { return int(s.active.Load()) }

// Serve runs the HTTP server on ln until ctx fires, then drains: it stops
// accepting connections and new submissions, waits up to DrainTimeout for
// every submission it already accepted to end, cancels the stragglers, and
// returns once every job and connection has wound down. A clean drain
// returns nil.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	if ctx == nil {
		ctx = context.Background()
	}
	httpSrv := s.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		// Listener failure before any drain was requested.
		return err
	case <-ctx.Done():
	}
	return s.drain(httpSrv)
}

// httpServer is the http.Server Serve runs: the API handler with the
// connection timeouts a long-lived daemon needs.
func (s *Server) httpServer() *http.Server {
	return &http.Server{Handler: s.handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// ListenAndServe binds addr and calls Serve. It reports the bound address
// through onListen (when non-nil) before serving, so callers using ":0" can
// learn the chosen port.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return s.Serve(ctx, ln)
}

// drain executes the graceful-shutdown sequence described on Serve.
func (s *Server) drain(httpSrv *http.Server) error {
	s.draining.Store(true)
	timeout := s.cfg.DrainTimeout
	s.log.Info("drain: stopped accepting new work",
		"activeJobs", s.active.Load(), "timeout", timeout.String())

	// Close the listener and start winding connections down; SSE streams
	// end as their jobs finish below. The shutdown context outlives the
	// job deadline so handlers of freshly-cancelled jobs can flush.
	shCtx, cancelSh := context.WithTimeout(context.Background(), 2*timeout)
	defer cancelSh()
	shErr := make(chan error, 1)
	go func() { shErr <- httpSrv.Shutdown(shCtx) }()

	// Wait on the slot count: a submission holding a slot is accepted work
	// even before its job is registered.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	for s.active.Load() > 0 {
		select {
		case <-deadline.C:
			s.log.Warn("drain: deadline reached, cancelling in-flight jobs",
				"activeJobs", s.active.Load())
			s.stopJobs()
		case <-poll.C:
		}
	}
	err := <-shErr
	s.log.Info("drain: complete", "err", errString(err))
	return err
}

// acquireJobSlot reserves quota for one job, or reports the violated limit.
// The slot is taken before the drain flag is read, so a drain that starts
// concurrently either sees the slot and waits for it or is seen here.
func (s *Server) acquireJobSlot() *apiError {
	n := s.active.Add(1)
	if s.draining.Load() {
		s.releaseJobSlot()
		return &apiError{Status: http.StatusServiceUnavailable, Code: "draining",
			Message: "server is draining and no longer accepts new work"}
	}
	if max := s.cfg.MaxConcurrentJobs; max > 0 && n > int64(max) {
		s.releaseJobSlot()
		return &apiError{Status: http.StatusTooManyRequests, Code: "quota_exceeded",
			Message: "max concurrent jobs reached; retry after an active run or sweep finishes"}
	}
	return nil
}

// releaseJobSlot returns a reserved slot once the job goroutine ends.
func (s *Server) releaseJobSlot() { s.active.Add(-1) }

// discardHandler is a slog.Handler that drops everything (slog.DiscardHandler
// arrives in go1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
