package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
	// the spec's declared horizon, then the 10-minute default; a negative
	// value is rejected.
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

// runJob is one asynchronous simulation run: the job core plus the
// resolved request it echoes and the event feed its SSE consumers read.
type runJob struct {
	job
	scenario string
	profile  string
	seed     int64
	horizon  time.Duration
	log      *eventLog
}

// status snapshots the job for the wire.
func (j *runJob) status(withReport bool) runStatus {
	state, errMsg, report := j.outcome()
	st := runStatus{
		ID:        j.id,
		State:     state,
		Scenario:  j.scenario,
		Profile:   j.profile,
		Seed:      j.seed,
		HorizonNs: int64(j.horizon),
		Events:    j.log.total(),
		Error:     errMsg,
	}
	if withReport {
		st.Report = report
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
	if req.HorizonNs < 0 {
		writeError(w, invalidField("horizonNs", "horizon must be positive"))
		return
	}
	horizon := time.Duration(req.HorizonNs)
	if horizon == 0 {
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

	ctx, cancel := context.WithCancel(s.root)
	j := s.runs.add(func(id string) *runJob {
		return &runJob{
			job:      job{id: id, cancel: cancel, state: StatePending},
			scenario: spec.Name,
			profile:  profile,
			seed:     seed,
			horizon:  horizon,
			log:      newEventLog(s.cfg.EventBuffer),
		}
	})
	// The event feed is the -trace encoding verbatim: one JSON line per
	// event, framed into the replay ring for SSE consumers.
	sess.Subscribe(tracefmt.Observer(func(e worksite.Event) {
		line, err := tracefmt.Marshal(e)
		if err != nil {
			s.log.Error("run event encode", "jobID", j.id, "err", err.Error())
			return
		}
		j.log.append(e.EventKind(), line)
	}))

	go s.execute(ctx, &j.job, runWork(sess, horizon), j.log.close)

	s.log.Info("run submitted", "jobID", j.id,
		"scenario", spec.Name, "profile", profile, "seed", seed, "horizon", horizon.String())
	w.Header().Set(headerJobID, j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// runWork is a run's work for the executor: advance the session over the
// horizon and encode its report.
func runWork(sess *worksite.Session, horizon time.Duration) func(context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		if err := sess.RunFor(ctx, horizon); err != nil {
			return nil, err
		}
		rep, err := json.Marshal(sess.Report())
		if err != nil {
			return nil, fmt.Errorf("encode report: %v", err)
		}
		return rep, nil
	}
}
