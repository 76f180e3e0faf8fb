// Package pathway is the public surface of the paper's certification
// pathway: one call runs the combined safety–security risk assessment
// (ISO/SAE 21434 TARA, IEC 62443 security levels, IEC TS 63074 interplay),
// generates operational evidence from the scenario catalog's multi-attack
// run on the simulated worksite, probes platform integrity and simulation
// validity, assembles the modular security assurance case, and checks CE
// conformity against the standards registry.
//
// The risk-model helpers (BuildUseCase, AchievedSL, AssessArchitecture,
// SummarizeInterplay) expose the methodology's building blocks for consumers
// that assess their own architectures; Standards exposes the registry the
// conformity check discharges evidence against.
package pathway

import (
	"context"

	"repro/internal/core"
	"repro/internal/risk"
	"repro/internal/standards"
)

// Options parameterise a pathway evaluation; Result is its complete output
// (risk registers before/after treatment, worksite evidence report,
// boot/attestation evidence, SOTIF probes, assurance case and evaluation,
// CE conformity verdict).
type (
	Options = core.PathwayOptions
	Result  = core.PathwayResult
)

// Run executes the full certification-pathway pipeline. The context bounds
// the wall-clock of the operational-evidence campaign (the pipeline's only
// long-running stage): a cancelled or expired context surfaces as ctx.Err().
func Run(ctx context.Context, opts Options) (*Result, error) {
	return core.RunPathway(ctx, opts)
}

// Risk-methodology types, re-exported for consumers assessing their own
// configurations.
type (
	// UseCase bundles the AGRARSENSE model: threat/control catalog, zone
	// architecture, and safety functions.
	UseCase = risk.UseCase
	// SLVector maps IEC 62443 foundational requirements to security levels.
	SLVector = risk.SLVector
	// ZoneAssessment is the per-zone/conduit SL gap verdict.
	ZoneAssessment = risk.ZoneAssessment
	// SiteArchitecture is the zone/conduit decomposition under assessment.
	SiteArchitecture = risk.SiteArchitecture
	// AssessedRisk is one TARA register row.
	AssessedRisk = risk.AssessedRisk
	// SecurityInformedPL is one safety function's security-informed
	// performance level (IEC TS 63074 interplay).
	SecurityInformedPL = risk.SecurityInformedPL
	// InterplaySummary aggregates interplay results.
	InterplaySummary = risk.InterplaySummary
)

// BuildUseCase returns the paper's AGRARSENSE use-case model.
func BuildUseCase() *UseCase { return risk.BuildUseCase() }

// AchievedSL computes the SL vector the applied controls achieve over the
// use-case model (nil controls = untreated baseline).
func AchievedSL(uc *UseCase, appliedControls []string) SLVector {
	return risk.AchievedSL(&uc.Model, appliedControls)
}

// AssessArchitecture checks every zone and conduit of the architecture
// against an achieved SL vector.
func AssessArchitecture(arch SiteArchitecture, achieved SLVector) []ZoneAssessment {
	return risk.AssessArchitecture(arch, achieved)
}

// SummarizeInterplay aggregates security-informed performance-level results.
func SummarizeInterplay(results []SecurityInformedPL) InterplaySummary {
	return risk.Summarize(results)
}

// StandardsEntry is one row of the standards-and-regulations registry.
type StandardsEntry = standards.Entry

// Standards returns the registry of standards and regulations the
// conformity check evaluates against (paper Sections I–II, IV-D).
func Standards() []StandardsEntry { return standards.Registry() }
