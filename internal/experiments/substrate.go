package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pki"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/rng"
	"repro/internal/secureboot"
	"repro/internal/securechan"
	"repro/internal/simval"
	"repro/internal/sotif"
)

// E6Result is the combined risk-assessment experiment (IEC TS 63074
// interplay, Section IV-D).
type E6Result struct {
	Before      []risk.AssessedRisk
	After       []risk.AssessedRisk
	InterBefore []risk.SecurityInformedPL
	InterAfter  []risk.SecurityInformedPL
	Register    *report.Table
	Interplay   *report.Table
}

// E6CombinedRisk runs the TARA before/after treatment and the interplay
// analysis on both registers.
func E6CombinedRisk() (E6Result, error) {
	uc := risk.BuildUseCase()
	before, err := uc.Model.Assess(nil)
	if err != nil {
		return E6Result{}, fmt.Errorf("e6: %w", err)
	}
	after, err := uc.Model.Assess(uc.FullControls())
	if err != nil {
		return E6Result{}, fmt.Errorf("e6: %w", err)
	}
	ib, err := risk.AnalyzeInterplay(uc.SafetyFunctions, before)
	if err != nil {
		return E6Result{}, fmt.Errorf("e6: %w", err)
	}
	ia, err := risk.AnalyzeInterplay(uc.SafetyFunctions, after)
	if err != nil {
		return E6Result{}, fmt.Errorf("e6: %w", err)
	}

	reg := report.NewTable("E6: TARA register, untreated vs treated",
		"threat", "asset", "impact", "feas_before", "risk_before", "risk_after", "cal", "treatment")
	afterByID := make(map[string]risk.AssessedRisk, len(after))
	for _, r := range after {
		afterByID[r.Scenario.ID] = r
	}
	for _, r := range before {
		ra := afterByID[r.Scenario.ID]
		reg.AddRow(r.Scenario.ID, r.Scenario.AssetID, r.Damage.Impact.Overall().String(),
			r.Feasibility.String(), r.RiskValue, ra.RiskValue, r.CAL.String(), r.Treatment.String())
	}

	inter := report.NewTable("E6: security-informed performance levels (IEC TS 63074)",
		"safety_function", "required", "designed", "effective_untreated", "effective_treated", "meets_after")
	iaByID := make(map[string]risk.SecurityInformedPL, len(ia))
	for _, r := range ia {
		iaByID[r.Function.ID] = r
	}
	for _, r := range ib {
		ra := iaByID[r.Function.ID]
		inter.AddRow(r.Function.ID, r.Function.RequiredPL.String(), r.DesignedPL.String(),
			r.EffectivePL.String(), ra.EffectivePL.String(), ra.MeetsRequired)
	}
	return E6Result{Before: before, After: after, InterBefore: ib, InterAfter: ia,
		Register: reg, Interplay: inter}, nil
}

// E7Result is the assurance-case experiment (Section V).
type E7Result struct {
	Secured   *core.PathwayResult
	Unsecured *core.PathwayResult
	Table     *report.Table
}

// E7Assurance runs the full pathway under both profiles and compares the
// resulting assurance cases and conformity verdicts.
func E7Assurance(ctx context.Context, seed int64, evidenceRun time.Duration) (E7Result, error) {
	sec, err := core.RunPathway(ctx, core.PathwayOptions{
		Seed: seed, Secured: true, EvidenceRun: evidenceRun, SOTIFTrials: 40,
	})
	if err != nil {
		return E7Result{}, fmt.Errorf("e7 secured: %w", err)
	}
	uns, err := core.RunPathway(ctx, core.PathwayOptions{
		Seed: seed, Secured: false, EvidenceRun: evidenceRun, SOTIFTrials: 40,
	})
	if err != nil {
		return E7Result{}, fmt.Errorf("e7 unsecured: %w", err)
	}
	t := report.NewTable("E7: assurance case and CE conformity, secured vs unsecured pathway",
		"pathway", "sac_supported", "sac_score", "solutions", "mandatory_covered", "ce_ready")
	add := func(name string, r *core.PathwayResult) {
		t.AddRow(name, r.SACEval.Supported, r.SACEval.Score, r.SACEval.Solutions,
			fmt.Sprintf("%d/%d", r.Conformity.MandatoryCovered, r.Conformity.MandatoryTotal),
			r.Conformity.Ready)
	}
	add("secured", sec)
	add("unsecured", uns)
	return E7Result{Secured: sec, Unsecured: uns, Table: t}, nil
}

// E8Result is the simulation-validity experiment (Section III-D).
type E8Result struct {
	Results []simval.Result
	Table   *report.Table
}

// E8SimValidity compares matched, biased and degenerate synthetic sensor
// distributions against a reference and shows the metrics discriminate.
func E8SimValidity(seed int64) (E8Result, error) {
	r := rng.New(seed)
	const n = 2500
	sample := func(rr *rng.Rand, mean, std float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rr.Norm(mean, std)
		}
		return out
	}
	ref := sample(r.Derive("ref"), 20, 4) // e.g. lidar detection range distribution
	cases := []struct {
		name string
		syn  []float64
	}{
		{"matched", sample(r.Derive("matched"), 20, 4)},
		{"biased-mean", sample(r.Derive("biased"), 26, 4)},
		{"wrong-variance", sample(r.Derive("variance"), 20, 9)},
		{"degenerate", make([]float64, n)},
	}
	for i := range cases[3].syn {
		cases[3].syn[i] = 20
	}

	t := report.NewTable(fmt.Sprintf("E8: simulation validity metrics (n=%d per sample)", n),
		"synthetic_source", "ks", "psi", "mean_err", "std_err", "valid")
	var res E8Result
	for _, cse := range cases {
		out, err := simval.Validate(cse.name, ref, cse.syn, simval.DefaultCriteria())
		if err != nil {
			return E8Result{}, fmt.Errorf("e8: %w", err)
		}
		res.Results = append(res.Results, out)
		t.AddRow(cse.name, out.KS, out.PSI, out.MeanRelErr, out.StdRelErr, out.Valid)
	}
	res.Table = t
	return res, nil
}

// E9Result is the secure-substrate experiment: handshake outcome plus
// boot-chain tamper detection coverage.
type E9Result struct {
	HandshakeOK bool
	TamperTable *report.Table
}

// E9SecureSubstrate performs one handshake and sweeps boot-chain tamper
// scenarios.
func E9SecureSubstrate(seed int64) (E9Result, error) {
	var res E9Result
	init, resp, err := NewChannelPair(seed, 0)
	if err != nil {
		return E9Result{}, fmt.Errorf("e9: %w", err)
	}
	res.HandshakeOK = init.Established() && resp.Established()

	res.TamperTable, err = bootTamperSweep(seed)
	if err != nil {
		return E9Result{}, err
	}
	return res, nil
}

// bootTamperSweep verifies every tamper class against the boot chain.
func bootTamperSweep(seed int64) (*report.Table, error) {
	r := rng.New(seed)
	ca, err := pki.NewCA("vendor", r.Derive("ca"))
	if err != nil {
		return nil, err
	}
	vendor, err := ca.Issue("signing", pki.RoleOperator, 0, 24*time.Hour)
	if err != nil {
		return nil, err
	}
	rogueCA, err := pki.NewCA("rogue", r.Derive("rogue"))
	if err != nil {
		return nil, err
	}
	rogue, err := rogueCA.Issue("rogue-signing", pki.RoleOperator, 0, 24*time.Hour)
	if err != nil {
		return nil, err
	}

	mkChain := func() secureboot.Chain {
		images := []secureboot.Image{
			{Name: "bootloader", Version: 2, Content: []byte("bl v2")},
			{Name: "rtos", Version: 5, Content: []byte("rtos v5")},
			{Name: "app", Version: 9, Content: []byte("app v9")},
		}
		var ch secureboot.Chain
		for _, im := range images {
			ch.Stages = append(ch.Stages, secureboot.Stage{Image: im, Manifest: secureboot.SignManifest(vendor, im)})
		}
		return ch
	}

	t := report.NewTable("E9: boot-chain tamper detection sweep",
		"tamper_class", "boot_halted", "detected_stage")
	scenarios := []struct {
		name   string
		mutate func(ch *secureboot.Chain, dev *secureboot.Device)
	}{
		{"none", func(*secureboot.Chain, *secureboot.Device) {}},
		{"modified-image", func(ch *secureboot.Chain, _ *secureboot.Device) {
			ch.Stages[1].Image.Content = []byte("rtos v5 implant")
		}},
		{"forged-manifest", func(ch *secureboot.Chain, _ *secureboot.Device) {
			evil := secureboot.Image{Name: "rtos", Version: 6, Content: []byte("evil")}
			ch.Stages[1] = secureboot.Stage{Image: evil, Manifest: secureboot.SignManifest(rogue, evil)}
		}},
		{"rollback", func(ch *secureboot.Chain, dev *secureboot.Device) {
			dev.MinVersions["rtos"] = 7
		}},
		{"swapped-manifests", func(ch *secureboot.Chain, _ *secureboot.Device) {
			ch.Stages[0].Manifest, ch.Stages[1].Manifest = ch.Stages[1].Manifest, ch.Stages[0].Manifest
		}},
	}
	for _, sc := range scenarios {
		ch := mkChain()
		dev := secureboot.NewDevice(vendor.Cert)
		sc.mutate(&ch, dev)
		rep, bootErr := dev.Boot(ch)
		halted := bootErr != nil
		stage := "-"
		if halted && len(rep.Log) > 0 {
			stage = rep.Log[len(rep.Log)-1].Stage
		}
		if sc.name == "none" && halted {
			return nil, fmt.Errorf("e9: clean chain failed to boot: %v", bootErr)
		}
		if sc.name != "none" && !halted {
			return nil, fmt.Errorf("e9: tamper class %q not detected", sc.name)
		}
		t.AddRow(sc.name, halted, stage)
	}
	return t, nil
}

// E10Result is the SOTIF unknown-space exploration experiment (ISO 21448
// §10: identification of unknown hazardous scenarios).
type E10Result struct {
	WithoutDrone sotif.Report
	WithDrone    sotif.Report
	Improvement  sotif.Improvement
	Table        *report.Table
}

// E10SOTIFExploration samples unknown scenarios over the weather/occlusion/
// crossing space, evaluates them with the detection probe, and shows how the
// drone's additional point of view shrinks the unknown-unsafe area (Area 3).
func E10SOTIFExploration(seed int64, scenarios, trials int) E10Result {
	analysis := sotif.NewAnalysis(0.15)
	space := append(sotif.KnownCatalog(), sotif.ExploreSpace(rng.New(seed), scenarios)...)

	eval := func(droneOn bool) sotif.Report {
		return analysis.Evaluate(space, func(sc sotif.Scenario) float64 {
			return core.DetectionMissRate(seed, sc, droneOn, trials)
		})
	}
	without := eval(false)
	with := eval(true)

	t := report.NewTable(
		fmt.Sprintf("E10: SOTIF scenario space (%d known + %d explored, %d trials each)",
			len(sotif.KnownCatalog()), scenarios, trials),
		"configuration", "known-safe", "known-unsafe", "unknown-unsafe", "unknown-safe", "residual", "discovered")
	add := func(name string, r sotif.Report) {
		t.AddRow(name,
			r.ByArea[sotif.Area1KnownSafe.String()],
			r.ByArea[sotif.Area2KnownUnsafe.String()],
			r.ByArea[sotif.Area3UnknownUnsafe.String()],
			r.ByArea[sotif.Area4UnknownSafe.String()],
			r.ResidualRisk, len(r.Discovered))
	}
	add("forwarder-only", without)
	add("with-drone", with)
	return E10Result{
		WithoutDrone: without,
		WithDrone:    with,
		Improvement:  sotif.CompareReports(without, with),
		Table:        t,
	}
}

// NewChannelPair constructs and pairs a secure channel for benchmarks. A
// rekeyInterval of zero keeps the default.
func NewChannelPair(seed int64, rekeyInterval uint64) (*securechan.Channel, *securechan.Channel, error) {
	r := rng.New(seed)
	ca, err := pki.NewCA("bench-ca", r.Derive("ca"))
	if err != nil {
		return nil, nil, err
	}
	a, err := ca.Issue("a", pki.RoleMachine, 0, 24*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	b, err := ca.Issue("b", pki.RoleCoordinator, 0, 24*time.Hour)
	if err != nil {
		return nil, nil, err
	}
	v := pki.NewVerifier(ca.Cert(), nil)
	init := securechan.NewInitiator(a, v, securechan.Options{Rand: r.Derive("i"), RekeyInterval: rekeyInterval})
	resp := securechan.NewResponder(b, v, securechan.Options{Rand: r.Derive("r"), RekeyInterval: rekeyInterval})

	m1, err := init.Start()
	if err != nil {
		return nil, nil, err
	}
	m2, err := resp.HandleHandshake(m1)
	if err != nil {
		return nil, nil, err
	}
	m3, err := init.HandleHandshake(m2)
	if err != nil {
		return nil, nil, err
	}
	if _, err := resp.HandleHandshake(m3); err != nil {
		return nil, nil, err
	}
	return init, resp, nil
}
