package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/tracefmt"
	"repro/internal/worksite"
)

// runRequest is the POST /v1/runs body. Exactly one of Scenario (a catalog
// name) or Spec (an inline scenario-spec document, same schema as
// `worksite-sim -scenario-file`) selects the scenario.
type runRequest struct {
	// Scenario names a catalog scenario.
	Scenario string `json:"scenario,omitempty"`
	// Spec is an inline JSON scenario spec; fields overlay the baseline.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Profile optionally overrides the scenario's security profile
	// ("unsecured" | "secured").
	Profile string `json:"profile,omitempty"`
	// Seed roots the run's random streams (default 42).
	Seed *int64 `json:"seed,omitempty"`
	// HorizonNs is the simulated duration in nanoseconds; 0 falls back to
	// the spec's declared horizon, then the 10-minute default.
	HorizonNs int64 `json:"horizonNs,omitempty"`
}

// runStatus is the wire representation of a run job.
type runStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Scenario string `json:"scenario"`
	Profile  string `json:"profile"`
	Seed     int64  `json:"seed"`
	// HorizonNs is the resolved simulated duration.
	HorizonNs int64 `json:"horizonNs"`
	// Events counts the events published to the SSE feed so far — the
	// run's progress signal.
	Events uint64 `json:"events"`
	// Error carries the failure reason of a failed run.
	Error string `json:"error,omitempty"`
	// Report is the final run report (byte-identical to an in-process
	// worksim run at the same spec/profile/seed/horizon), present once
	// State is "done".
	Report json.RawMessage `json:"report,omitempty"`
}

// runJob is one asynchronous simulation run.
type runJob struct {
	id       string
	scenario string
	profile  string
	seed     int64
	horizon  time.Duration
	log      *eventLog
	cancel   context.CancelFunc

	mu     sync.Mutex
	state  State
	errMsg string
	report json.RawMessage
}

// status snapshots the job for the wire.
func (j *runJob) status(withReport bool) runStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := runStatus{
		ID:        j.id,
		State:     j.state,
		Scenario:  j.scenario,
		Profile:   j.profile,
		Seed:      j.seed,
		HorizonNs: int64(j.horizon),
		Events:    j.log.total(),
		Error:     j.errMsg,
	}
	if withReport {
		st.Report = j.report
	}
	return st
}

// statusJSON renders the status (without the report) for the terminal SSE
// frame.
func (j *runJob) statusJSON() []byte {
	b, err := json.Marshal(j.status(false))
	if err != nil {
		return []byte(`{}`)
	}
	return b
}

// setState moves the job to a new state; terminal states stick.
func (j *runJob) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.state = s
	}
}

// finish records the terminal outcome.
func (j *runJob) finish(state State, report json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.report = report
	j.errMsg = errMsg
}

// resolveRunSpec turns a run request into a validated scenario spec plus
// the resolved profile label, applying the same precedence the worksim
// façade uses: explicit profile option over the spec's own profile.
func resolveRunSpec(req *runRequest) (scenario.Spec, string, *apiError) {
	var (
		spec scenario.Spec
		err  error
	)
	switch {
	case req.Scenario != "" && len(req.Spec) > 0:
		return spec, "", badRequest("scenario and spec are mutually exclusive; submit one of them")
	case req.Scenario != "":
		if spec, err = scenario.Get(req.Scenario); err != nil {
			return spec, "", &apiError{Status: http.StatusUnprocessableEntity, Code: "unknown_scenario",
				Field: "scenario", Message: err.Error()}
		}
	case len(req.Spec) > 0:
		if spec, err = scenario.Parse(req.Spec); err != nil {
			return spec, "", specError(err)
		}
	default:
		return spec, "", badRequest("submit a catalog scenario name (scenario) or an inline spec (spec)")
	}
	profile := req.Profile
	if profile != "" {
		prof, err := scenario.ResolveProfile(profile)
		if err != nil {
			return spec, "", &apiError{Status: http.StatusUnprocessableEntity, Code: "unknown_profile",
				Field: "profile", Message: err.Error()}
		}
		spec = spec.WithProfile(prof)
	} else {
		profile = profileLabel(spec)
	}
	return spec, profile, nil
}

// profileLabel names the spec's own profile for status reporting.
func profileLabel(spec scenario.Spec) string {
	switch spec.Profile {
	case worksite.Unsecured():
		return "unsecured"
	case worksite.Secured():
		return "secured"
	default:
		return "custom"
	}
}

// handleSubmitRun is POST /v1/runs: validate, build the session
// synchronously (so every rejection is a 4xx, not a failed job), register
// the job and run it on its own goroutine. The session forks the secure
// channels of the server's shared bundle, so a run pays for keygen and
// handshakes only if it is the first to need that bundle since the server
// started.
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	spec, profile, apiErr := resolveRunSpec(&req)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	seed := DefaultSeed
	if req.Seed != nil {
		seed = *req.Seed
	}
	horizon := time.Duration(req.HorizonNs)
	if horizon <= 0 {
		if spec.Horizon > 0 {
			horizon = spec.Horizon
		} else {
			horizon = DefaultHorizon
		}
	}
	if horizon > maxSimDuration {
		writeError(w, invalidField("horizonNs", "horizon %v exceeds the cap of %v", horizon, maxSimDuration))
		return
	}
	if apiErr := s.acquireJobSlot(); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	// Build now: building validates the compiled config, so an unrunnable
	// spec is rejected with 422 before a job ever exists.
	batch, err := scenario.NewBatchWith(spec, &s.comm)
	var sess *worksite.Session
	if err == nil {
		sess, _, err = batch.Build(seed, horizon)
	}
	if err != nil {
		s.releaseJobSlot()
		writeError(w, specError(err))
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := s.runs.add(func(id string) *runJob {
		return &runJob{
			id:       id,
			scenario: spec.Name,
			profile:  profile,
			seed:     seed,
			horizon:  horizon,
			log:      newEventLog(s.cfg.EventBuffer),
			cancel:   cancel,
			state:    StatePending,
		}
	})
	// The event feed is the -trace encoding verbatim: one JSON line per
	// event, framed into the replay ring for SSE consumers.
	sess.Subscribe(tracefmt.Observer(func(e worksite.Event) {
		line, err := tracefmt.Marshal(e)
		if err != nil {
			s.log.Error("run event encode", "runID", j.id, "err", err.Error())
			return
		}
		j.log.append(e.EventKind(), line)
	}))

	s.jobs.Add(1)
	go s.executeRun(ctx, j, sess)

	s.log.Info("run submitted", "runID", j.id,
		"scenario", spec.Name, "profile", profile, "seed", seed, "horizon", horizon.String())
	w.Header().Set(headerJobID, j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// executeRun drives one run to completion on its own goroutine. A panic in
// the run fails this job only: the recover, deferred last so it runs first,
// records the failure before the event log closes and the slot is released.
func (s *Server) executeRun(ctx context.Context, j *runJob, sess *worksite.Session) {
	defer s.jobs.Add(-1)
	defer s.releaseJobSlot()
	defer j.log.close()
	defer func() {
		if r := recover(); r != nil {
			j.finish(StateFailed, nil, fmt.Sprintf("panic: %v", r))
			s.log.Error("run panicked", "runID", j.id, "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
		}
	}()
	j.setState(StateRunning)
	err := sess.RunFor(ctx, j.horizon)
	switch {
	case err == nil:
		rep, merr := json.Marshal(sess.Report())
		if merr != nil {
			j.finish(StateFailed, nil, "encode report: "+merr.Error())
		} else {
			j.finish(StateDone, rep, "")
		}
	case errors.Is(err, context.Canceled):
		j.finish(StateCancelled, nil, "")
	default:
		j.finish(StateFailed, nil, err.Error())
	}
	st := j.status(false)
	s.log.Info("run finished", "runID", j.id, "state", string(st.State),
		"events", st.Events, "err", st.Error)
}

// handleGetRun is GET /v1/runs/{id}: full status including the final report
// once done.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("run", r.PathValue("id")))
		return
	}
	w.Header().Set(headerJobID, j.id)
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleListRuns is GET /v1/runs: every run in ID order, reports elided.
func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	jobs := s.runs.all()
	out := make([]runStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(false))
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []runStatus `json:"runs"`
	}{out})
}

// handleCancelRun is DELETE /v1/runs/{id}: fire the run's context. The run
// stops between control ticks; cancelling a finished run is a no-op.
func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("run", r.PathValue("id")))
		return
	}
	j.cancel()
	s.log.Info("run cancel requested", "runID", j.id)
	w.Header().Set(headerJobID, j.id)
	writeJSON(w, http.StatusOK, j.status(false))
}
