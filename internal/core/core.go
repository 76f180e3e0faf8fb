// Package core is the facade of the reproduction: the holistic
// certification-pathway pipeline the paper sketches. One call runs the
// combined risk assessment (TARA + IEC 62443 + ISO 13849 + IEC TS 63074
// interplay), runs the scenario catalog's multi-attack scenario against the
// simulated worksite to generate operational security evidence, boots the
// measured-boot substrate, probes simulation validity and SOTIF residual
// risk, assembles the modular security assurance case, and checks CE
// conformity against the standards registry.
//
// Running the pipeline with Secured=false evaluates the unsecured baseline
// pathway (the pre-regulation state of the art); with Secured=true it
// evaluates the full defence stack. The difference between the two results —
// supported vs. unsupported assurance case, ready vs. not-ready conformity —
// is the paper's thesis in executable form.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/assurance"
	"repro/internal/risk"
	"repro/internal/scenario"
	"repro/internal/secureboot"
	"repro/internal/simval"
	"repro/internal/sotif"
	"repro/internal/standards"
	"repro/internal/worksite"
)

// PathwayOptions parameterise a pathway evaluation.
type PathwayOptions struct {
	// Seed drives all stochastic components.
	Seed int64
	// Secured selects the full defence stack (true) or the unsecured
	// baseline (false).
	Secured bool
	// EvidenceRun is the virtual duration of the multi-attack evidence run.
	// Zero means 15 minutes.
	EvidenceRun time.Duration
	// SOTIFTrials is the number of detection trials per SOTIF scenario.
	// Zero means 60.
	SOTIFTrials int
}

func (o PathwayOptions) withDefaults() PathwayOptions {
	if o.EvidenceRun == 0 {
		o.EvidenceRun = 15 * time.Minute
	}
	if o.SOTIFTrials == 0 {
		o.SOTIFTrials = 60
	}
	return o
}

// PathwayResult is the complete output of a pathway evaluation.
type PathwayResult struct {
	Options PathwayOptions `json:"options"`

	// Combined risk assessment.
	RegisterBefore  []risk.AssessedRisk       `json:"registerBefore"`
	RegisterAfter   []risk.AssessedRisk       `json:"registerAfter"`
	SLBefore        []risk.ZoneAssessment     `json:"slBefore"`
	SLAfter         []risk.ZoneAssessment     `json:"slAfter"`
	InterplayBefore []risk.SecurityInformedPL `json:"interplayBefore"`
	InterplayAfter  []risk.SecurityInformedPL `json:"interplayAfter"`
	Transfer        risk.TransferReport       `json:"transfer"`

	// Operational evidence.
	Worksite  worksite.Report        `json:"worksite"`
	Boot      secureboot.Report      `json:"boot"`
	BootOK    bool                   `json:"bootOk"`
	TamperDet bool                   `json:"tamperDetected"`
	AttestOK  bool                   `json:"attestOk"`
	SimVal    simval.ToolchainReport `json:"simval"`
	SOTIF     sotif.Report           `json:"sotif"`
	SOTIFImp  sotif.Improvement      `json:"sotifImprovement"`

	// Assurance and conformity.
	SAC        *assurance.Case            `json:"-"`
	SACEval    assurance.Evaluation       `json:"sacEval"`
	Conformity standards.ConformityReport `json:"conformity"`
}

// RunPathway executes the full pipeline. The context bounds the wall-clock
// of the operational-evidence campaign (the pipeline's only long-running
// stage): a cancelled or expired context surfaces as ctx.Err().
func RunPathway(ctx context.Context, opts PathwayOptions) (*PathwayResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	res := &PathwayResult{Options: opts}
	uc := risk.BuildUseCase()

	// 1. Combined risk assessment, untreated vs. treated.
	var err error
	res.RegisterBefore, err = uc.Model.Assess(nil)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	applied := []string(nil)
	if opts.Secured {
		applied = uc.FullControls()
	}
	res.RegisterAfter, err = uc.Model.Assess(applied)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	res.SLBefore = risk.AssessArchitecture(uc.Architecture, risk.AchievedSL(&uc.Model, nil))
	res.SLAfter = risk.AssessArchitecture(uc.Architecture, risk.AchievedSL(&uc.Model, applied))
	res.InterplayBefore, err = risk.AnalyzeInterplay(uc.SafetyFunctions, res.RegisterBefore)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	res.InterplayAfter, err = risk.AnalyzeInterplay(uc.SafetyFunctions, res.RegisterAfter)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	res.Transfer = risk.TransferKnowledge(&uc.Model)

	// 2. Operational evidence: attack campaign against the (un)secured site.
	res.Worksite, err = runEvidenceCampaign(ctx, opts)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}

	// 3. Platform integrity evidence.
	if err := res.runBootEvidence(opts); err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}

	// 4. Simulation validity and SOTIF probes.
	res.SimVal, err = simValProbe(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	res.SOTIF, res.SOTIFImp = sotifProbe(opts.Seed, opts.SOTIFTrials)

	// 5. Assurance case.
	res.SAC, err = buildSAC(uc, res)
	if err != nil {
		return nil, fmt.Errorf("pathway: %w", err)
	}
	res.SACEval = res.SAC.Evaluate()

	// 6. CE conformity.
	res.Conformity = standards.CheckConformity(res.evidenceInventory())
	return res, nil
}

// runEvidenceCampaign runs the catalog's multi-attack scenario (phased
// de-auth flood, command injection, GNSS spoofing and wideband jamming) on
// the (un)secured worksite and returns the KPI report — the operational
// evidence the assurance case binds.
func runEvidenceCampaign(ctx context.Context, opts PathwayOptions) (worksite.Report, error) {
	spec, err := scenario.Get("multi-attack")
	if err != nil {
		return worksite.Report{}, err
	}
	if opts.Secured {
		spec = spec.WithProfile(worksite.Secured())
	}
	return scenario.Run(ctx, spec, opts.Seed, opts.EvidenceRun)
}

// runBootEvidence exercises the measured-boot substrate: a clean boot with
// attestation, then a tamper attempt that must be detected.
func (res *PathwayResult) runBootEvidence(opts PathwayOptions) error {
	fix, err := buildBootFixture(opts.Seed)
	if err != nil {
		return err
	}
	dev := secureboot.NewDevice(fix.vendor.Cert)
	rep, err := dev.Boot(fix.chain)
	if err != nil {
		return fmt.Errorf("clean boot: %w", err)
	}
	res.Boot = rep
	res.BootOK = rep.OK

	nonce := []byte("pathway-challenge")
	quote := secureboot.Attest(fix.machine, rep, nonce)
	res.AttestOK = secureboot.VerifyQuote(fix.machine.Cert, quote, secureboot.GoldenPCR(fix.chain), nonce) == nil

	// Tamper attempt: modified control application must be caught.
	tampered := fix.chain
	tampered.Stages = append([]secureboot.Stage(nil), fix.chain.Stages...)
	img := tampered.Stages[len(tampered.Stages)-1].Image
	img.Content = append(append([]byte(nil), img.Content...), []byte(" implant")...)
	tampered.Stages[len(tampered.Stages)-1].Image = img
	_, tamperErr := secureboot.NewDevice(fix.vendor.Cert).Boot(tampered)
	res.TamperDet = tamperErr != nil
	return nil
}

// evidenceInventory maps standards evidence kinds to the artefacts this run
// actually produced *successfully*. Evidence of a failed defence is not
// evidence of conformity, so each kind is gated on the measured outcome.
func (res *PathwayResult) evidenceInventory() map[string][]string {
	inv := map[string][]string{
		"risk-register":      {"core: TARA register"},
		"pl-analysis":        {"core: ISO 13849 PL analysis"},
		"sl-gap-analysis":    {"core: IEC 62443 zone/conduit gaps"},
		"interplay-analysis": {"core: IEC TS 63074 interplay"},
		"sotif-report":       {"core: SOTIF scenario-space report"},
	}
	m := res.Worksite.Metrics
	if m.CommandsApplied == 0 && m.Collisions == 0 {
		inv["attack-campaign"] = []string{"worksite: campaign withstood"}
	}
	if m.ForgeriesBlocked > 0 || m.ReplaysBlocked > 0 {
		inv["secure-channel-tests"] = []string{"securechan: forgeries/replays rejected in campaign"}
	}
	if len(res.Worksite.Alerts) > 0 {
		inv["ids-log"] = []string{"ids: campaign alert log"}
	}
	if res.Options.Secured && m.SafetyStops > 0 {
		inv["failsafe-tests"] = []string{"worksite: fail-safe stops exercised"}
	}
	if res.Options.Secured && res.BootOK && res.TamperDet {
		inv["secure-boot-report"] = []string{"secureboot: clean boot + tamper detection"}
	}
	if res.Options.Secured && res.AttestOK {
		inv["attestation"] = []string{"secureboot: attestation quote verified"}
	}
	if res.SimVal.Valid {
		inv["simval-report"] = []string{"simval: toolchain representative"}
	}
	if res.SACEval.Score >= 0.8 {
		inv["assurance-case"] = []string{"assurance: GSN case evaluated"}
	}
	return inv
}
