// Package worksim is the public façade of the forestry-worksite simulation:
// the supported, stable surface of the reproduction of "Cybersecurity
// Pathways Towards CE-Certified Autonomous Forestry Machines" (Mohamad et
// al., DSN 2024).
//
// The shape of the API:
//
//   - A Scenario ([scenariospec.Spec]) declaratively describes one
//     operational situation. Catalog lists the named standard scenarios,
//     Lookup fetches one, LoadSpec reads a JSON spec file.
//   - Open compiles a Scenario into a steppable *Session under functional
//     options (WithSeed, WithHorizon, WithProfile, WithSampleInterval,
//     WithObserver). Sessions publish the typed event stream of package
//     [repro/worksim/event] and produce a Report.
//   - Execution is context-aware end to end: Session.RunFor / RunUntil /
//     Run and the campaign pool behind Sweep observe cancellation between
//     control ticks and surface ctx.Err(). A context that never fires —
//     including context.Background() — yields byte-identical results to an
//     uncancellable run.
//   - Sweep fans the scenario × profile × seed cross-product out over a
//     bounded worker pool with per-metric aggregation, byte-reproducible
//     for a fixed seed set regardless of parallelism.
//
// Everything under internal/ remains free to evolve; the compatibility
// surface consumers may rely on is this package and its subpackages
// (event, scenariospec, report, pathway, experiments).
package worksim

import (
	"repro/internal/scenario"
	"repro/internal/version"
	"repro/internal/worksite"
	"repro/worksim/scenariospec"
)

// Version is the engine's semantic version, re-exported from
// internal/version so campaign results and cache keys stamp the same
// string the façade reports. Bump the minor on surface additions and the
// major on breaking changes; every cmd/ binary reports it via -version,
// and every sweep/campaign JSON export carries it.
const Version = version.Engine

// Scenario declaratively describes one worksite operational situation. It is
// the same type as scenariospec.Spec — compose one from Baseline(), a
// catalog entry, or a JSON spec file.
type Scenario = scenariospec.Spec

// Baseline returns the clean E1 baseline scenario.
func Baseline() Scenario { return scenario.Baseline() }

// Catalog returns every named standard scenario, sorted: the E1 baseline,
// one scenario per implemented attack class, weather/terrain/fleet variants,
// and multi-attack campaigns.
func Catalog() []string { return scenario.List() }

// Lookup returns the named catalog scenario as a fresh copy, so callers can
// mutate profiles or attack windows freely.
func Lookup(name string) (Scenario, error) { return scenario.Get(name) }

// ForAttack returns the single-attack scenario for a registered attack class
// ("none" yields the clean baseline) — the sugar behind the E5 matrix rows.
func ForAttack(name string) (Scenario, error) { return scenario.ForAttack(name) }

// AttackNames lists the registered attack classes, sorted.
func AttackNames() []string { return scenario.AttackNames() }

// LoadSpec reads a JSON scenario spec file; fields overlay the baseline, so
// a file only states what it changes.
func LoadSpec(path string) (Scenario, error) { return scenario.LoadFile(path) }

// SpecHash returns the scenario's canonical content address: SHA-256 hex
// over its compact canonical JSON. It is the spec component of the result
// cache's run key — any change to the scenario (site, weather, workers,
// timing, profile, attack schedule, declared horizon, even name or
// description) changes the hash, so cached runs can never be confused across
// situations. Hash a profile-resolved spec (Scenario.WithProfile) to get the
// exact key sweeps cache under.
func SpecHash(s Scenario) (string, error) { return s.Hash() }

// ParseSpec decodes a JSON scenario spec document (see LoadSpec).
// Validation failures — a declared horizon that is not positive, unknown or
// duplicate attack schedule entries, out-of-range window fractions — are
// typed [scenariospec.SpecError] values naming the offending field, which
// the worksimd daemon surfaces as HTTP 422.
func ParseSpec(data []byte) (Scenario, error) { return scenario.Parse(data) }

// SecurityProfile selects the active defence stack of a run.
type SecurityProfile = worksite.SecurityProfile

// Unsecured returns the baseline profile with every defence off; Secured
// returns the full defence stack of the paper's pathway.
func Unsecured() SecurityProfile { return worksite.Unsecured() }

// Secured returns the full defence stack.
func Secured() SecurityProfile { return worksite.Secured() }

// Profiles returns the named security profiles a sweep can select, in
// presentation order (the paper's unsecured-vs-secured comparison axis).
func Profiles() []string { return scenario.Profiles() }

// ResolveProfile maps a profile name to its defence selection.
func ResolveProfile(name string) (SecurityProfile, error) { return scenario.ResolveProfile(name) }

// Config is the compiled per-run worksite configuration a Scenario produces
// (Scenario.Config); Report and Metrics are the outcome of a run.
type (
	Config  = worksite.Config
	Report  = worksite.Report
	Metrics = worksite.Metrics
)
