package core

import (
	"fmt"

	"repro/internal/assurance"
	"repro/internal/risk"
	"repro/internal/standards"
)

// buildSAC assembles the modular GSN security assurance case of Section V:
// a top-level CE claim argued by separation of concerns (security, safety,
// AI, compliance), with every solution bound to evidence produced by this
// pathway run. Evidence OK flags come from measured outcomes, so the same
// argument structure evaluates supported for the secured pathway and
// unsupported for the unsecured baseline.
func buildSAC(uc *risk.UseCase, res *PathwayResult) (*assurance.Case, error) {
	c, err := assurance.NewCase("SAC-AGRARSENSE", "G-TOP",
		"The partially autonomous forestry worksite is acceptably safe and secure for CE marking under Regulation (EU) 2023/1230")
	if err != nil {
		return nil, err
	}

	add := func(n assurance.Node) error { return c.AddNode(n) }
	type edge struct{ p, ch string }
	var supports []edge
	var contexts []edge

	nodes := []assurance.Node{
		{ID: "C-UC", Kind: assurance.KindContext, Statement: "Use case: autonomous forwarder + observation drone + manual harvester (paper Fig. 2)"},
		{ID: "C-REG", Kind: assurance.KindContext, Statement: "Regulation (EU) 2023/1230 Annex III incl. protection against corruption"},
		{ID: "A-SIM", Kind: assurance.KindAssumption, Statement: "Simulation evidence is representative (argued under G-AI-SIMVAL)"},
		{ID: "S-CONCERNS", Kind: assurance.KindStrategy, Statement: "Argument by separation of concerns with modular sub-cases (Bloomfield et al.)"},

		{ID: "G-SECURITY", Kind: assurance.KindGoal, Statement: "All identified threat scenarios are treated to acceptable residual risk", Module: "security"},
		{ID: "S-SEC", Kind: assurance.KindStrategy, Statement: "Argue over the ISO/SAE 21434 TARA register and per-control operational evidence", Module: "security"},
		{ID: "G-SEC-RISK", Kind: assurance.KindGoal, Statement: "No residual risk value of 4 or higher remains in the register", Module: "security"},
		{ID: "Sn-REGISTER", Kind: assurance.KindSolution, Statement: "Treated TARA risk register", Module: "security"},
		{ID: "G-SEC-COMMS", Kind: assurance.KindGoal, Statement: "Machine communication is mutually authenticated, encrypted and replay-protected", Module: "security"},
		{ID: "Sn-CHAN", Kind: assurance.KindSolution, Statement: "Secure-channel campaign evidence: forged/replayed records rejected", Module: "security"},
		{ID: "G-SEC-MGMT", Kind: assurance.KindGoal, Statement: "Management frames resist forgery (de-auth attack)", Module: "security"},
		{ID: "Sn-PMF", Kind: assurance.KindSolution, Statement: "Protected-management campaign evidence", Module: "security"},
		{ID: "G-SEC-NAV", Kind: assurance.KindGoal, Statement: "Navigation rejects implausible GNSS input and fails safe", Module: "security"},
		{ID: "Sn-GNSS", Kind: assurance.KindSolution, Statement: "GNSS-guard campaign evidence: spoof detected, nav error bounded", Module: "security"},
		{ID: "G-SEC-BOOT", Kind: assurance.KindGoal, Statement: "Platform integrity is verified at boot and attestable", Module: "security"},
		{ID: "Sn-BOOT", Kind: assurance.KindSolution, Statement: "Measured-boot report, tamper detection, attestation quote", Module: "security"},
		{ID: "G-SEC-MON", Kind: assurance.KindGoal, Statement: "Security events are monitored with timely response (IEC 62443 SR 6.2)", Module: "security"},
		{ID: "Sn-IDS", Kind: assurance.KindSolution, Statement: "IDS alert log from the attack campaign", Module: "security"},

		{ID: "G-SAFETY", Kind: assurance.KindGoal, Statement: "All safety functions meet their required PL including security-informed degradation (IEC TS 63074)", Module: "safety"},
		{ID: "S-SAFE", Kind: assurance.KindStrategy, Statement: "Argue per safety function over the interplay analysis", Module: "safety"},

		{ID: "G-AI", Kind: assurance.KindGoal, Statement: "AI/simulation-based components are valid for the operational design domain", Module: "ai"},
		{ID: "S-AI", Kind: assurance.KindStrategy, Statement: "Argue via simulation validity and SOTIF residual risk", Module: "ai"},
		{ID: "G-AI-SIMVAL", Kind: assurance.KindGoal, Statement: "The simulation toolchain is representative (Section III-D)", Module: "ai"},
		{ID: "Sn-SIMVAL", Kind: assurance.KindSolution, Statement: "Per-sensor distribution validity report", Module: "ai"},
		{ID: "G-AI-SOTIF", Kind: assurance.KindGoal, Statement: "Known-unsafe SOTIF area is acceptably small with the collaborative drone view", Module: "ai"},
		{ID: "Sn-SOTIF", Kind: assurance.KindSolution, Statement: "SOTIF scenario-space report with drone improvement", Module: "ai"},

		{ID: "G-COMP", Kind: assurance.KindGoal, Statement: "All mandatory conformity requirements have discharging evidence", Module: "compliance"},
		{ID: "Sn-CONF", Kind: assurance.KindSolution, Statement: "CE conformity gap analysis", Module: "compliance"},
	}
	for _, n := range nodes {
		if err := add(n); err != nil {
			return nil, err
		}
	}
	contexts = append(contexts, edge{"G-TOP", "C-UC"}, edge{"G-TOP", "C-REG"}, edge{"S-CONCERNS", "A-SIM"})
	supports = append(supports,
		edge{"G-TOP", "S-CONCERNS"},
		edge{"S-CONCERNS", "G-SECURITY"},
		edge{"S-CONCERNS", "G-SAFETY"},
		edge{"S-CONCERNS", "G-AI"},
		edge{"S-CONCERNS", "G-COMP"},
		edge{"G-SECURITY", "S-SEC"},
		edge{"S-SEC", "G-SEC-RISK"}, edge{"G-SEC-RISK", "Sn-REGISTER"},
		edge{"S-SEC", "G-SEC-COMMS"}, edge{"G-SEC-COMMS", "Sn-CHAN"},
		edge{"S-SEC", "G-SEC-MGMT"}, edge{"G-SEC-MGMT", "Sn-PMF"},
		edge{"S-SEC", "G-SEC-NAV"}, edge{"G-SEC-NAV", "Sn-GNSS"},
		edge{"S-SEC", "G-SEC-BOOT"}, edge{"G-SEC-BOOT", "Sn-BOOT"},
		edge{"S-SEC", "G-SEC-MON"}, edge{"G-SEC-MON", "Sn-IDS"},
		edge{"G-SAFETY", "S-SAFE"},
		edge{"G-AI", "S-AI"},
		edge{"S-AI", "G-AI-SIMVAL"}, edge{"G-AI-SIMVAL", "Sn-SIMVAL"},
		edge{"S-AI", "G-AI-SOTIF"}, edge{"G-AI-SOTIF", "Sn-SOTIF"},
		edge{"G-COMP", "Sn-CONF"},
	)

	// One goal + solution per safety function.
	for _, sf := range uc.SafetyFunctions {
		gid := "G-SF-" + sf.ID
		sid := "Sn-SF-" + sf.ID
		if err := add(assurance.Node{
			ID: gid, Kind: assurance.KindGoal, Module: "safety",
			Statement: fmt.Sprintf("%s meets %s under security-informed analysis", sf.Name, sf.RequiredPL),
		}); err != nil {
			return nil, err
		}
		if err := add(assurance.Node{
			ID: sid, Kind: assurance.KindSolution, Module: "safety",
			Statement: "Interplay analysis row for " + sf.ID,
		}); err != nil {
			return nil, err
		}
		supports = append(supports, edge{"S-SAFE", gid}, edge{gid, sid})
	}

	for _, e := range supports {
		if err := c.Support(e.p, e.ch); err != nil {
			return nil, err
		}
	}
	for _, e := range contexts {
		if err := c.InContextOf(e.p, e.ch); err != nil {
			return nil, err
		}
	}

	if err := bindEvidence(c, res); err != nil {
		return nil, err
	}
	return c, nil
}

// bindEvidence attaches measured artefacts to the solutions, with OK flags
// reflecting the actual outcomes of this run.
func bindEvidence(c *assurance.Case, res *PathwayResult) error {
	m := res.Worksite.Metrics
	maxResidual := 0
	for _, r := range res.RegisterAfter {
		if r.RiskValue > maxResidual {
			maxResidual = r.RiskValue
		}
	}
	binds := []struct {
		sol string
		ev  assurance.Evidence
	}{
		{"Sn-REGISTER", assurance.Evidence{
			ID: "E-REGISTER", Source: "internal/risk",
			Description: fmt.Sprintf("treated register: max residual risk %d", maxResidual),
			OK:          maxResidual < 4,
		}},
		{"Sn-CHAN", assurance.Evidence{
			ID: "E-CHAN", Source: "internal/securechan + campaign",
			Description: fmt.Sprintf("forgeries blocked %d, replays blocked %d, forged commands applied %d",
				m.ForgeriesBlocked, m.ReplaysBlocked, m.CommandsApplied),
			OK: m.ForgeriesBlocked > 0 && m.CommandsApplied == 0,
		}},
		{"Sn-PMF", assurance.Evidence{
			ID: "E-PMF", Source: "internal/netsim + campaign",
			Description: fmt.Sprintf("mgmt forgery alerts %d, distance under attack %.0f m",
				res.Worksite.Alerts["mgmt-forgery"], m.DistanceM),
			OK: res.Worksite.Alerts["mgmt-forgery"] > 0 && m.DistanceM > 100,
		}},
		{"Sn-GNSS", assurance.Evidence{
			ID: "E-GNSS", Source: "internal/sensors (GNSSGuard) + campaign",
			Description: fmt.Sprintf("gnss anomaly alerts %d, max nav error %.1f m",
				res.Worksite.Alerts["gnss-anomaly"], m.NavErrMaxM),
			OK: res.Worksite.Alerts["gnss-anomaly"] > 0 && m.NavErrMaxM < 20,
		}},
		{"Sn-BOOT", assurance.Evidence{
			ID: "E-BOOT", Source: "internal/secureboot",
			Description: fmt.Sprintf("clean boot ok=%v, tamper detected=%v, attestation ok=%v",
				res.BootOK, res.TamperDet, res.AttestOK),
			OK: res.Options.Secured && res.BootOK && res.TamperDet && res.AttestOK,
		}},
		{"Sn-IDS", assurance.Evidence{
			ID: "E-IDS", Source: "internal/ids + campaign",
			Description: fmt.Sprintf("alert types observed: %d", len(res.Worksite.Alerts)),
			OK:          len(res.Worksite.Alerts) >= 2,
		}},
		{"Sn-SIMVAL", assurance.Evidence{
			ID: "E-SIMVAL", Source: "internal/simval",
			Description: fmt.Sprintf("toolchain valid=%v, failed=%v", res.SimVal.Valid, res.SimVal.Failed),
			OK:          res.SimVal.Valid,
		}},
		{"Sn-SOTIF", assurance.Evidence{
			ID: "E-SOTIF", Source: "internal/sotif + detection probe",
			Description: fmt.Sprintf("unsafe scenarios %d->%d with drone, residual drop %.3f",
				res.SOTIFImp.UnsafeBefore, res.SOTIFImp.UnsafeAfter, res.SOTIFImp.ResidualDrop),
			OK: res.SOTIFImp.UnsafeAfter < res.SOTIFImp.UnsafeBefore || res.SOTIFImp.UnsafeAfter == 0,
		}},
	}
	for _, r := range res.InterplayAfter {
		binds = append(binds, struct {
			sol string
			ev  assurance.Evidence
		}{
			"Sn-SF-" + r.Function.ID,
			assurance.Evidence{
				ID: "E-SF-" + r.Function.ID, Source: "internal/risk (interplay)",
				Description: fmt.Sprintf("designed %s, effective %s, required %s",
					r.DesignedPL, r.EffectivePL, r.Function.RequiredPL),
				OK: r.MeetsRequired,
			},
		})
	}
	for _, b := range binds {
		if err := c.Bind(b.sol, b.ev); err != nil {
			return err
		}
	}

	// Conformity evidence is bound after the first evaluation pass would be
	// circular (conformity consumes the SAC score); instead bind the
	// mandatory-requirement outcome computed from the same inventory minus
	// the assurance-case kind.
	preInv := res.evidenceInventory()
	delete(preInv, "assurance-case")
	return c.Bind("Sn-CONF", assurance.Evidence{
		ID: "E-CONF", Source: "internal/standards",
		Description: "CE conformity pre-check (excluding the assurance case itself)",
		OK:          conformityMandatoryOK(preInv),
	})
}

// conformityMandatoryOK reports whether every mandatory requirement other
// than the assurance-case requirement itself (which this SAC discharges) is
// covered by the inventory.
func conformityMandatoryOK(inv map[string][]string) bool {
	rep := standards.CheckConformity(inv)
	for _, st := range rep.Statuses {
		if !st.Requirement.Mandatory || st.Requirement.ID == "REQ-ASSURANCE" {
			continue
		}
		if !st.Covered {
			return false
		}
	}
	return true
}
