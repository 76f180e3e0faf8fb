package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
)

// State is the lifecycle state of an asynchronous job.
type State string

// Job lifecycle: pending → running → done | failed | cancelled.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// job is the lifecycle core every run and sweep embeds.
type job struct {
	id     string
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	errMsg string
	result json.RawMessage
}

// core returns the embedded core, through which cancelJob reaches cancel.
func (j *job) core() *job { return j }

// setState moves the job to a new state; terminal states stick.
func (j *job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.state = s
	}
}

// finish records the terminal outcome.
func (j *job) finish(state State, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
}

// outcome snapshots the state, error and result.
func (j *job) outcome() (State, string, json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.result
}

// execute drives one job to a terminal state on its own goroutine. work
// returns the result bytes; context.Canceled ends the job cancelled, any
// other error or a panic fails this job only. ended, when non-nil, runs
// once the outcome is recorded (a run closes its event feed there, so SSE
// consumers see the final state). Cancelling the job's context drops it
// from the server root's children, and the slot taken at submit is
// released last, so ActiveJobs reaching 0 means every accepted job ended.
func (s *Server) execute(ctx context.Context, j *job, work func(context.Context) (json.RawMessage, error), ended func()) {
	defer s.releaseJobSlot()
	defer j.cancel()
	if ended != nil {
		defer ended()
	}
	state, errMsg := StateFailed, ""
	var result json.RawMessage
	defer func() {
		if r := recover(); r != nil {
			errMsg = fmt.Sprintf("panic: %v", r)
			s.log.Error("job panicked", "jobID", j.id, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
		}
		j.finish(state, result, errMsg)
		s.log.Info("job finished", "jobID", j.id, "state", string(state), "err", errMsg)
	}()
	j.setState(StateRunning)
	res, err := work(ctx)
	switch {
	case err == nil:
		state, result = StateDone, res
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	default:
		errMsg = err.Error()
	}
}

// statusJob is what the job handlers need of a job kind: its core and its
// wire status S.
type statusJob[S any] interface {
	core() *job
	status(withResult bool) S
}

// lookup finds the job the request's {id} names and stamps its ID on the
// response, or writes the 404.
func (r *registry[T]) lookup(w http.ResponseWriter, req *http.Request) (T, bool) {
	id := req.PathValue("id")
	j, ok := r.get(id)
	if !ok {
		writeError(w, notFound(r.kind, id))
		return j, false
	}
	w.Header().Set(headerJobID, id)
	return j, true
}

// getJob is GET /v1/{kind}s/{id}: status, with the result once done.
func getJob[J statusJob[S], S any](reg *registry[J]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if j, ok := reg.lookup(w, r); ok {
			writeJSON(w, http.StatusOK, j.status(true))
		}
	}
}

// listJobs is GET /v1/{kind}s: every job in ID order, results elided.
func listJobs[J statusJob[S], S any](reg *registry[J]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		jobs := reg.all()
		out := make([]S, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.status(false))
		}
		writeJSON(w, http.StatusOK, map[string][]S{reg.kind + "s": out})
	}
}

// cancelJob is DELETE /v1/{kind}s/{id}: fire the job's context. A run stops
// between control ticks, a sweep's pool stops claiming seeds; cancelling a
// finished job is a no-op.
func cancelJob[J statusJob[S], S any](log *slog.Logger, reg *registry[J]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := reg.lookup(w, r)
		if !ok {
			return
		}
		j.core().cancel()
		log.Info("job cancel requested", "jobID", r.PathValue("id"))
		writeJSON(w, http.StatusOK, j.status(false))
	}
}
