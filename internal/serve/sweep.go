package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// sweepRequest is the POST /v1/sweeps body: the scenario × profile × seed
// cross-product the campaign engine fans out over its bounded pool.
type sweepRequest struct {
	// Scenarios are catalog names; empty (or ["all"]) selects the whole
	// catalog.
	Scenarios []string `json:"scenarios,omitempty"`
	// Profiles are named defence selections; empty selects every profile.
	Profiles []string `json:"profiles,omitempty"`
	// Seeds is the per-cell seed range. Omitted, it is one run at seed 42;
	// a zero count is one run at the range's base, and a negative count is
	// rejected.
	Seeds *campaign.SeedRange `json:"seeds"`
	// DurationNs is the simulated duration per run (0 = 10 minutes).
	DurationNs int64 `json:"durationNs,omitempty"`
	// Parallel bounds the one worker pool over the whole cube (0 = the
	// daemon's GOMAXPROCS).
	Parallel int `json:"parallel,omitempty"`
	// SampleNs, when positive, records a downsampled per-seed timeseries;
	// negative is rejected.
	SampleNs int64 `json:"sampleNs,omitempty"`
	// EarlyStop names an early-stop predicate (collision, unsafe,
	// safe-stop, first-alert).
	EarlyStop string `json:"earlyStop,omitempty"`
}

// sweepProgress is the progress counter of a sweep: simulation runs
// (seeds × cells) completed out of the total, and — when the daemon runs
// with a result cache — how many of the completed runs were served from it.
type sweepProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cached counts completed runs served from the content-addressed result
	// cache instead of simulated. Always ≤ Done; omitted when the daemon has
	// no cache configured.
	Cached int `json:"cached,omitempty"`
}

// sweepStatus is the wire representation of a sweep job.
type sweepStatus struct {
	ID         string             `json:"id"`
	State      State              `json:"state"`
	Scenarios  []string           `json:"scenarios"`
	Profiles   []string           `json:"profiles"`
	Seeds      campaign.SeedRange `json:"seeds"`
	DurationNs int64              `json:"durationNs"`
	Progress   sweepProgress      `json:"progress"`
	Error      string             `json:"error,omitempty"`
	// Result is the sweep's JSON export (the schema locked by the façade
	// golden file), present once State is "done".
	Result json.RawMessage `json:"result,omitempty"`
}

// sweepJob is one asynchronous sweep: the job core plus the axes it echoes
// and the counters its progress reads.
type sweepJob struct {
	job
	scenarios []string
	profiles  []string
	seeds     campaign.SeedRange
	duration  time.Duration
	total     int
	stats     campaign.SweepStats
}

// status snapshots the job for the wire. The state is read before the
// counters, so a done sweep reports its final progress.
func (j *sweepJob) status(withResult bool) sweepStatus {
	state, errMsg, result := j.outcome()
	v := j.stats.View()
	st := sweepStatus{
		ID:         j.id,
		State:      state,
		Scenarios:  j.scenarios,
		Profiles:   j.profiles,
		Seeds:      j.seeds,
		DurationNs: int64(j.duration),
		Progress: sweepProgress{
			Done:   int(v.Executed + v.CacheHits),
			Total:  j.total,
			Cached: int(v.CacheHits),
		},
		Error: errMsg,
	}
	if withResult {
		st.Result = result
	}
	return st
}

// handleSubmitSweep is POST /v1/sweeps: validate the axes synchronously,
// register the job, and fan it out on the campaign pool asynchronously.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if apiErr := decodeBody(w, r, &req); apiErr != nil {
		writeError(w, apiErr)
		return
	}
	scenarios := req.Scenarios
	if len(scenarios) == 0 || (len(scenarios) == 1 && scenarios[0] == "all") {
		scenarios = scenario.List()
	}
	for _, name := range scenarios {
		if _, err := scenario.Get(name); err != nil {
			writeError(w, &apiError{Status: http.StatusUnprocessableEntity,
				Code: "unknown_scenario", Field: "scenarios", Message: err.Error()})
			return
		}
	}
	profiles := req.Profiles
	if len(profiles) == 0 {
		profiles = scenario.Profiles()
	}
	for _, name := range profiles {
		if _, err := scenario.ResolveProfile(name); err != nil {
			writeError(w, &apiError{Status: http.StatusUnprocessableEntity,
				Code: "unknown_profile", Field: "profiles", Message: err.Error()})
			return
		}
	}
	earlyStop, err := campaign.EarlyStopByName(req.EarlyStop)
	if err != nil {
		writeError(w, &apiError{Status: http.StatusUnprocessableEntity,
			Code: "unknown_early_stop", Field: "earlyStop", Message: err.Error()})
		return
	}
	seeds := campaign.SeedRange{Base: DefaultSeed, Count: 1}
	if req.Seeds != nil {
		if req.Seeds.Count < 0 {
			writeError(w, invalidField("seeds.count", "seed count must not be negative"))
			return
		}
		seeds = campaign.SeedRange{Base: req.Seeds.Base, Count: max(req.Seeds.Count, 1)}
	}
	duration := time.Duration(req.DurationNs)
	if duration < 0 {
		writeError(w, invalidField("durationNs", "duration must be positive"))
		return
	}
	if duration == 0 {
		duration = campaign.DefaultSweepDuration
	}
	if duration > maxSimDuration {
		writeError(w, invalidField("durationNs", "duration %v exceeds the cap of %v", duration, maxSimDuration))
		return
	}
	if req.Parallel > maxParallel {
		writeError(w, invalidField("parallel", "parallel %d exceeds the cap of %d", req.Parallel, maxParallel))
		return
	}
	// Divide rather than multiply: the product of a huge count overflows.
	cells := len(scenarios) * len(profiles)
	if seeds.Count > maxSweepRuns/cells {
		writeError(w, invalidField("seeds.count", "%d cells × %d seeds exceeds the cap of %d runs",
			cells, seeds.Count, maxSweepRuns))
		return
	}
	if req.SampleNs < 0 {
		writeError(w, invalidField("sampleNs", "sample interval must not be negative"))
		return
	}
	if req.SampleNs > 0 {
		// ⌈duration / sampleNs⌉ without overflow; duration is positive here.
		runs, perRun := int64(cells*seeds.Count), (int64(duration)-1)/req.SampleNs+1
		if perRun > maxSweepPoints/runs {
			writeError(w, invalidField("sampleNs", "%d runs × %d samples per run exceeds the cap of %d timeseries points",
				runs, perRun, maxSweepPoints))
			return
		}
	}
	if apiErr := s.acquireJobSlot(); apiErr != nil {
		writeError(w, apiErr)
		return
	}

	ctx, cancel := context.WithCancel(s.root)
	j := s.sweeps.add(func(id string) *sweepJob {
		return &sweepJob{
			job:       job{id: id, cancel: cancel, state: StatePending},
			scenarios: scenarios,
			profiles:  profiles,
			seeds:     seeds,
			duration:  duration,
			total:     cells * seeds.Count,
		}
	})
	opts := campaign.SweepOptions{
		Scenarios:     scenarios,
		Profiles:      profiles,
		Seeds:         seeds,
		Parallel:      req.Parallel,
		Duration:      duration,
		SampleEvery:   time.Duration(req.SampleNs),
		EarlyStop:     earlyStop,
		EarlyStopName: req.EarlyStop,
		CacheDir:      s.cfg.CacheDir,
		Stats:         &j.stats,
	}

	go s.execute(ctx, &j.job, func(ctx context.Context) (json.RawMessage, error) {
		res, err := campaign.Sweep(ctx, opts)
		if err != nil {
			return nil, err
		}
		b, err := res.JSON()
		if err != nil {
			return nil, fmt.Errorf("encode result: %v", err)
		}
		return b, nil
	}, nil)

	s.log.Info("sweep submitted", "jobID", j.id,
		"cells", cells, "seeds", seeds.Count, "duration", duration.String())
	w.Header().Set(headerJobID, j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}
