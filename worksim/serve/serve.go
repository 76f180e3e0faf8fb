// Package serve is the public surface of the simulation-as-a-service
// subsystem: the configuration and server types behind the worksimd daemon.
// It wraps repro/internal/serve the way the worksim package wraps the
// engine — binaries and examples import this package, never the internal
// one.
//
// A Server exposes the worksim run lifecycle over JSON/REST (stdlib
// net/http only):
//
//	POST   /v1/runs              submit a run (catalog name or inline spec), get an ID
//	GET    /v1/runs/{id}         state + final report (byte-identical to worksim.Open(...).Run)
//	GET    /v1/runs/{id}/events  live SSE stream of the typed event feed (-trace schema)
//	DELETE /v1/runs/{id}         cancel via the run's context
//	POST   /v1/sweeps            async scenario × profile × seed sweep on the bounded pool
//	GET    /v1/sweeps/{id}       sweep progress (seeds completed) and result
//	DELETE /v1/sweeps/{id}       cancel via the sweep's context
//	GET    /v1/scenarios         the named catalog, profiles and attack classes
//	GET    /v1/healthz           liveness + drain state (unauthenticated)
//	GET    /v1/version           façade version (unauthenticated)
//
// Runs and sweeps share one job lifecycle: the same states, panic handling,
// cancel and listing semantics. Cross-cutting: static API-key auth, per-key
// token-bucket rate limiting, a concurrent-job quota, structured request
// logs with job-ID correlation, and graceful drain (Serve returns cleanly
// once its context fires and every submission it accepted wound down).
package serve

import (
	internal "repro/internal/serve"

	"repro/worksim"
)

// Config configures a Server; the zero value serves with defaults (no
// auth, default rate limits and quotas).
type Config = internal.Config

// Server is the simulation-as-a-service HTTP server. Use Handler to mount
// it on an existing mux, or Serve/ListenAndServe for the full lifecycle
// including graceful drain.
type Server = internal.Server

// State is a job lifecycle state: pending → running → done | failed |
// cancelled.
type State = internal.State

// Job lifecycle states.
const (
	StatePending   = internal.StatePending
	StateRunning   = internal.StateRunning
	StateDone      = internal.StateDone
	StateFailed    = internal.StateFailed
	StateCancelled = internal.StateCancelled
)

// EnvAPIKeys is the environment variable worksimd reads API keys from when
// no key file is given (comma-separated).
const EnvAPIKeys = internal.EnvAPIKeys

// New builds a Server. The reported version defaults to the worksim façade
// version.
func New(cfg Config) *Server {
	if cfg.Version == "" {
		cfg.Version = worksim.Version
	}
	return internal.New(cfg)
}

// LoadAPIKeysFile reads a key file: one key per line, blank lines and
// #-comments ignored.
func LoadAPIKeysFile(path string) ([]string, error) { return internal.LoadAPIKeysFile(path) }

// APIKeysFromEnv returns the keys of EnvAPIKeys, nil when unset.
func APIKeysFromEnv() []string { return internal.APIKeysFromEnv() }
