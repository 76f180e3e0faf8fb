// Package scenario turns operational situations into data. A Spec is a
// declarative, JSON-serializable description of one worksite scenario — site
// geometry, weather, workers, drone, fusion policy, security profile, and an
// attack schedule expressed as {name, startFrac, stopFrac, params} — and
// Build compiles a Spec into a commissioned worksite plus a scheduled attack
// campaign through a single attack-arming registry.
//
// The paper's certification argument rests on exercising the pathway across
// many operational situations (attack classes, weather, fleet and defence
// variants). With specs, adding a situation is a data change: write a Spec
// (or drop a JSON file next to the binary), not a new switch arm in every
// harness. The named catalog (List / Get) ships the standard situations —
// the E1 baseline, one scenario per attack class of the E5 matrix, weather
// and terrain variants, and multi-attack combinations — and the campaign
// sweep (internal/campaign.Sweep) fans the cross-product
// scenario × profile × seed out over the bounded worker pool.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/sensors"
	"repro/internal/worksite"
)

// SiteSpec is the terrain part of a scenario: grid geometry and forest
// composition.
type SiteSpec struct {
	// Cols and Rows are the grid dimensions in cells.
	Cols int `json:"cols"`
	Rows int `json:"rows"`
	// CellSizeM is the cell edge length in metres.
	CellSizeM float64 `json:"cellSizeM"`
	// TreeDensity and RockDensity are obstacle probabilities in [0, 1].
	TreeDensity float64 `json:"treeDensity"`
	RockDensity float64 `json:"rockDensity"`
}

// TimingSpec is the mission-timing part of a scenario. Durations marshal as
// nanoseconds, matching the repo-wide JSON convention.
type TimingSpec struct {
	// LoadTime and UnloadTime are the dwell times at the harvest site and
	// the landing area.
	LoadTime   time.Duration `json:"loadTimeNs"`
	UnloadTime time.Duration `json:"unloadTimeNs"`
	// TickPeriod is the control-loop period.
	TickPeriod time.Duration `json:"tickPeriodNs"`
}

// Params carries attack-class tuning knobs as data. Unknown keys are
// ignored by the armer; missing keys fall back to the class defaults.
type Params map[string]float64

// Get returns the value for key, or def when absent.
func (p Params) Get(key string, def float64) float64 {
	if v, ok := p[key]; ok {
		return v
	}
	return def
}

// Bool interprets the value for key as a flag (non-zero = true).
func (p Params) Bool(key string, def bool) bool {
	v, ok := p[key]
	if !ok {
		return def
	}
	return v != 0
}

// AttackSpec schedules one attack class as data. Start and stop are
// fractions of the run duration, so the same spec scales to any -duration.
type AttackSpec struct {
	// Name selects the attack class in the arming registry (AttackNames).
	Name string `json:"name"`
	// StartFrac and StopFrac bound the active window as fractions of the
	// simulated duration, both in [0, 1]. StopFrac <= StartFrac means the
	// attack never ends once begun.
	StartFrac float64 `json:"startFrac"`
	StopFrac  float64 `json:"stopFrac"`
	// Params tunes the attack class (e.g. jammer power, flood period).
	Params Params `json:"params,omitempty"`
}

// SpecError is a typed spec-validation failure naming the offending field
// in JSON-pointer-ish dotted form (e.g. "attacks[2].name", "horizonNs").
// Consumers that surface specs over a wire — the worksimd daemon maps one to
// HTTP 422 Unprocessable Entity — can point the client at the exact field
// instead of parroting an opaque message.
type SpecError struct {
	// Field names the offending spec field.
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("scenario spec: field %s: %s", e.Field, e.Reason)
}

// specErrorf builds a SpecError with a formatted reason.
func specErrorf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Spec is a complete declarative scenario. The zero value is not runnable;
// start from Baseline() (or a catalog entry) and override fields. JSON spec
// files are decoded on top of Baseline(), so a file only needs the fields it
// changes.
type Spec struct {
	// Name identifies the scenario in catalogs, tables and sweep cells.
	Name string `json:"name,omitempty"`
	// Description is a one-line summary for listings.
	Description string `json:"description,omitempty"`
	// Horizon, when positive, is the simulated duration the scenario
	// declares for itself; runs opened without an explicit horizon use it
	// instead of the engine default. Zero means undeclared.
	Horizon time.Duration `json:"horizonNs,omitempty"`
	// Site is the terrain.
	Site SiteSpec `json:"site"`
	// Weather holds for the whole run.
	Weather sensors.Weather `json:"weather"`
	// Workers is the number of workers on foot near the harvest site.
	Workers int `json:"workers"`
	// ConfirmHits is the fusion confirmation policy (1 = OR-fusion).
	ConfirmHits int `json:"confirmHits"`
	// Drone toggles the observation drone (the Fig. 2 point of view).
	Drone bool `json:"drone"`
	// Timing is the mission timing.
	Timing TimingSpec `json:"timing"`
	// Profile selects the active defences. Sweeps override it per cell.
	Profile worksite.SecurityProfile `json:"profile"`
	// Attacks is the adversary schedule; empty means a clean run.
	Attacks []AttackSpec `json:"attacks,omitempty"`
}

// Baseline returns the E1 baseline scenario: a 400x400 m site, moderate
// forest, three workers, clear weather, drone on, no defences, no attacks.
func Baseline() Spec {
	return Spec{
		Name:        "baseline",
		Description: "clean E1 worksite: moderate forest, clear weather, drone on",
		Site: SiteSpec{
			Cols:        100,
			Rows:        100,
			CellSizeM:   4,
			TreeDensity: 0.22,
			RockDensity: 0.03,
		},
		Workers:     3,
		ConfirmHits: 2,
		Drone:       true,
		Timing: TimingSpec{
			LoadTime:   45 * time.Second,
			UnloadTime: 30 * time.Second,
			TickPeriod: 500 * time.Millisecond,
		},
	}
}

// WithProfile returns a copy of the spec with the security profile replaced —
// the sweep axis the E5 comparison methodology varies.
func (s Spec) WithProfile(p worksite.SecurityProfile) Spec {
	s.Profile = p
	return s
}

// Config compiles the spec into a worksite configuration rooted at seed.
// The seed is deliberately not part of the spec: a scenario is an
// operational situation, and the campaign layer owns the seed sweep.
func (s Spec) Config(seed int64) worksite.Config {
	return worksite.Config{
		Seed:         seed,
		Cols:         s.Site.Cols,
		Rows:         s.Site.Rows,
		CellSizeM:    s.Site.CellSizeM,
		TreeDensity:  s.Site.TreeDensity,
		RockDensity:  s.Site.RockDensity,
		Weather:      s.Weather,
		Workers:      s.Workers,
		Profile:      s.Profile,
		ConfirmHits:  s.ConfirmHits,
		DroneEnabled: s.Drone,
		LoadTime:     s.Timing.LoadTime,
		UnloadTime:   s.Timing.UnloadTime,
		TickPeriod:   s.Timing.TickPeriod,
	}
}

// Validate checks the scenario-level invariants: a declared horizon is
// positive, every scheduled attack is a registered class, schedule entries
// are unique per class, window fractions are sane, and a declared periodMs
// is at least 1 ms. Failures are typed
// *SpecError values naming the offending field. Worksite-level values
// (grid, timing, densities) are validated by worksite.Config.Validate when
// the spec is built.
func (s Spec) Validate() error {
	if s.Horizon < 0 {
		return specErrorf("horizonNs", "declared horizon must be positive, got %v", s.Horizon)
	}
	seen := make(map[string]int, len(s.Attacks))
	for i, a := range s.Attacks {
		if _, ok := lookupAttack(a.Name); !ok {
			return specErrorf(fmt.Sprintf("attacks[%d].name", i),
				"unknown attack class %q (registered: %v)", a.Name, AttackNames())
		}
		if prev, dup := seen[a.Name]; dup {
			return specErrorf(fmt.Sprintf("attacks[%d].name", i),
				"duplicate attack schedule entry %q (already scheduled at attacks[%d]); merge the windows into one entry", a.Name, prev)
		}
		seen[a.Name] = i
		if a.StartFrac < 0 || a.StartFrac > 1 || a.StopFrac < 0 || a.StopFrac > 1 {
			return specErrorf(fmt.Sprintf("attacks[%d]", i),
				"(%s): window fractions must be in [0,1], got start=%v stop=%v", a.Name, a.StartFrac, a.StopFrac)
		}
		// A flood period is one scheduled frame per period, so a sub-ms
		// period makes a run arbitrarily slow, and one under 1e-6 ms is a
		// zero Duration.
		if ms, ok := a.Params["periodMs"]; ok && !(ms >= minPeriodMs) {
			return specErrorf(fmt.Sprintf("attacks[%d].params.periodMs", i),
				"(%s): attack period must be at least %v ms, got %v", a.Name, minPeriodMs, ms)
		}
	}
	return nil
}

// minPeriodMs is the shortest attack period a spec may declare.
const minPeriodMs = 1

// Parse decodes a JSON spec on top of the baseline, so partial files only
// state what they change from the E1 scenario.
func Parse(data []byte) (Spec, error) {
	s := Baseline()
	s.Name = ""
	s.Description = ""
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// A horizon the document declares explicitly must be positive; zero is
	// indistinguishable from "absent" after decoding, so probe the raw JSON
	// for a declared-but-non-positive value.
	var probe struct {
		Horizon *int64 `json:"horizonNs"`
	}
	if json.Unmarshal(data, &probe) == nil && probe.Horizon != nil && *probe.Horizon <= 0 {
		return Spec{}, specErrorf("horizonNs", "declared horizon must be positive, got %dns", *probe.Horizon)
	}
	if s.Name == "" {
		s.Name = "custom"
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads and parses a JSON spec file (see Parse).
func LoadFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// JSON renders the spec as indented JSON — the canonical serialized form,
// suitable as a -scenario-file starting point.
func (s Spec) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Profiles returns the named security profiles a sweep can select, in
// presentation order (the paper's unsecured-vs-secured comparison axis).
func Profiles() []string { return []string{"unsecured", "secured"} }

// ResolveProfile maps a profile name to its defence selection.
func ResolveProfile(name string) (worksite.SecurityProfile, error) {
	switch name {
	case "unsecured":
		return worksite.Unsecured(), nil
	case "secured":
		return worksite.Secured(), nil
	default:
		return worksite.SecurityProfile{}, fmt.Errorf("scenario: unknown profile %q (known: %v)",
			name, Profiles())
	}
}
