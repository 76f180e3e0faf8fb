// Package campaign turns the one-shot E1–E10 reproduction into a Monte-Carlo
// evidence generator for the paper's assurance case: every experiment is
// registered under a stable ID with its paper section and default parameters,
// and the campaign runner fans any registered experiment out over a range of
// seeds with a bounded worker pool, then aggregates the per-seed domain
// metrics into mean / stddev / 95%-confidence summaries.
//
// The contract that makes this sound: an experiment's Run must be a pure
// function of its Params — no shared mutable state, no wall-clock
// measurements in Metrics — so concurrent runs at different seeds are
// independent and the aggregate over a fixed seed set is byte-reproducible.
// Wall-clock throughput is measured only by the testing.B micro-benchmarks;
// no registered experiment reports it.
package campaign

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
)

// Params parameterises a single experiment run. Not every experiment uses
// every field; unused fields are ignored by its Run function.
type Params struct {
	// Seed roots every random stream of the run.
	Seed int64 `json:"seed"`
	// Duration is the simulated duration for worksite-based experiments.
	Duration time.Duration `json:"durationNs,omitempty"`
	// Trials is the number of detection trials per sweep point.
	Trials int `json:"trials,omitempty"`
	// Scenarios is the number of explored SOTIF scenarios (E10).
	Scenarios int `json:"scenarios,omitempty"`
}

// WithDefaults fills zero fields from d. Seed is kept as-is: zero is a valid
// seed.
func (p Params) WithDefaults(d Params) Params {
	if p.Duration == 0 {
		p.Duration = d.Duration
	}
	if p.Trials == 0 {
		p.Trials = d.Trials
	}
	if p.Scenarios == 0 {
		p.Scenarios = d.Scenarios
	}
	return p
}

// Outcome is what one experiment run at one seed produces: the rendered
// artifacts (tables/figures, as in the paper) plus a flat map of domain
// metrics for cross-seed aggregation. Metrics must be a deterministic
// function of Params.
type Outcome struct {
	Tables  []*report.Table
	Figures []*report.Figure
	Metrics map[string]float64

	// Timeseries is the optional downsampled per-tick series of the run
	// (session-driven experiments with sampling enabled; nil otherwise).
	Timeseries []TimePoint
	// StoppedAt is the virtual time an early-stop predicate ended the run,
	// 0 when it ran to its full duration.
	StoppedAt time.Duration
}

// Experiment is a registered, discoverable experiment.
type Experiment struct {
	// ID is the stable lowercase identifier ("e1", "e5a", ...).
	ID string
	// Section names the paper section / figure the experiment reproduces.
	Section string
	// Description is a one-line summary.
	Description string
	// Defaults are the parameters the benchmark harness uses.
	Defaults Params
	// SeedIndependent marks experiments whose outcome does not depend on the
	// seed (pure model analyses like E3/E4/E6). The campaign runner executes
	// them once instead of fanning out, so aggregates honestly report n=1
	// rather than N identical pseudo-samples.
	SeedIndependent bool
	// Run executes the experiment. It must be safe for concurrent use.
	// Long-running experiments should honour ctx (simulation runners stop
	// between control ticks and return ctx.Err()); pure analyses may ignore
	// it. The campaign pool passes its own context through, so cancelling a
	// campaign cancels every in-flight run.
	Run func(ctx context.Context, p Params) (Outcome, error)
}

// Registry holds registered experiments in registration order.
type Registry struct {
	mu    sync.RWMutex
	byID  map[string]Experiment
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]Experiment)}
}

// Register adds an experiment. IDs must be unique, non-empty and lowercase.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" || e.ID != strings.ToLower(e.ID) {
		return fmt.Errorf("campaign: invalid experiment ID %q", e.ID)
	}
	if e.Run == nil {
		return fmt.Errorf("campaign: experiment %q has no Run function", e.ID)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[e.ID]; dup {
		return fmt.Errorf("campaign: experiment %q already registered", e.ID)
	}
	r.byID[e.ID] = e
	r.order = append(r.order, e.ID)
	return nil
}

// Get returns the experiment registered under id.
func (r *Registry) Get(id string) (Experiment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byID[strings.ToLower(id)]
	return e, ok
}

// IDs returns all registered IDs in registration order.
func (r *Registry) IDs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// All returns every registered experiment in registration order.
func (r *Registry) All() []Experiment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Experiment, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Select resolves a list of IDs (or the single element "all") to experiments,
// preserving request order and rejecting unknown IDs.
func (r *Registry) Select(ids []string) ([]Experiment, error) {
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		return r.All(), nil
	}
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := r.Get(strings.TrimSpace(id))
		if !ok {
			known := r.IDs()
			sort.Strings(known)
			return nil, fmt.Errorf("campaign: unknown experiment %q (registered: %s)",
				id, strings.Join(known, ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// Default is the process-wide registry that internal/experiments populates at
// init time.
var Default = NewRegistry()

// Register adds an experiment to the Default registry, panicking on conflict
// (registration happens at init time, where a conflict is a programming
// error).
func Register(e Experiment) {
	if err := Default.Register(e); err != nil {
		panic(err)
	}
}

// Lookup finds an experiment in the Default registry.
func Lookup(id string) (Experiment, bool) { return Default.Get(id) }
