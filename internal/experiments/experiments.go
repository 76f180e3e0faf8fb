// Package experiments implements the E1–E10 experiment runners and their
// ablations — one per table/figure of the paper (and per quantified claim,
// where the paper's artifact is descriptive). The benchmark harness
// (bench_test.go), the command-line tools and the examples all call these
// runners, so every reported number has exactly one producing code path.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/scenario"
	"repro/internal/sotif"
	"repro/internal/worksite"
)

// E1Result is the Fig. 1 worksite baseline: the partially autonomous site
// operates productively and safely, with and without the defence stack.
type E1Result struct {
	Unsecured worksite.Report
	Secured   worksite.Report
	Table     *report.Table
}

// E1WorksiteBaseline runs the clean (attack-free) baseline scenario under
// both profiles.
func E1WorksiteBaseline(ctx context.Context, seed int64, d time.Duration) (E1Result, error) {
	run := func(profile worksite.SecurityProfile) (worksite.Report, error) {
		return scenario.Run(ctx, scenario.Baseline().WithProfile(profile), seed, d)
	}
	uns, err := run(worksite.Unsecured())
	if err != nil {
		return E1Result{}, fmt.Errorf("e1: %w", err)
	}
	sec, err := run(worksite.Secured())
	if err != nil {
		return E1Result{}, fmt.Errorf("e1: %w", err)
	}
	t := report.NewTable(
		fmt.Sprintf("E1 (Fig. 1): worksite baseline, %v simulated, seed %d", d, seed),
		"profile", "logs", "distance_m", "safety_stops", "unsafe_episodes", "collisions", "tracks_confirmed", "false_alarms")
	add := func(name string, r worksite.Report) {
		m := r.Metrics
		t.AddRow(name, m.LogsDelivered, m.DistanceM, m.SafetyStops,
			m.UnsafeEpisodes, m.Collisions, m.TracksConfirmed, m.FalseAlarms)
	}
	add("unsecured", uns)
	add("secured", sec)
	return E1Result{Unsecured: uns, Secured: sec, Table: t}, nil
}

// E2Point is one sweep point of the drone point-of-view experiment.
type E2Point struct {
	Occlusion     float64
	MissFwOnly    float64
	MissWithDrone float64
}

// E2Result is the Fig. 2 reproduction: detection performance vs occlusion
// density, forwarder-only vs forwarder+drone.
type E2Result struct {
	Points []E2Point
	Figure *report.Figure
}

// E2DronePOV sweeps occlusion density and measures people-detection miss
// rates with and without the drone's additional point of view.
func E2DronePOV(seed int64, trials int) E2Result {
	densities := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4}
	fig := report.NewFigure(
		fmt.Sprintf("E2 (Fig. 2): people-detection miss rate vs occlusion density (%d trials/point)", trials),
		"occlusion")
	fwOnly := fig.AddSeries("miss_fw_only")
	withDrone := fig.AddSeries("miss_with_drone")
	var res E2Result
	for _, d := range densities {
		sc := sotif.Scenario{ID: fmt.Sprintf("occ-%.2f", d), OcclusionDensity: d}
		m0 := core.DetectionMissRate(seed, sc, false, trials)
		m1 := core.DetectionMissRate(seed, sc, true, trials)
		fwOnly.Add(d, m0)
		withDrone.Add(d, m1)
		res.Points = append(res.Points, E2Point{Occlusion: d, MissFwOnly: m0, MissWithDrone: m1})
	}
	res.Figure = fig
	return res
}

// E2aPoint is one confirmation-policy cell of the fusion ablation.
type E2aPoint struct {
	ConfirmHits   int
	MissFwOnly    float64
	MissWithDrone float64
}

// E2aResult is the fusion-policy ablation result.
type E2aResult struct {
	Points []E2aPoint
	Table  *report.Table
}

// E2aFusionPolicy is the fusion-policy ablation: confirmation threshold K
// trades detection latency/false alarms.
func E2aFusionPolicy(seed int64, trials int) E2aResult {
	t := report.NewTable(
		fmt.Sprintf("E2a: fusion confirmation policy ablation (occlusion 0.25, %d trials)", trials),
		"confirm_hits", "miss_rate_fw_only", "miss_rate_with_drone")
	sc := sotif.Scenario{ID: "policy", OcclusionDensity: 0.25}
	var res E2aResult
	for _, k := range []int{1, 2, 3} {
		m0 := core.DetectionMissRateWithPolicy(seed, sc, false, trials, k)
		m1 := core.DetectionMissRateWithPolicy(seed, sc, true, trials, k)
		t.AddRow(k, m0, m1)
		res.Points = append(res.Points, E2aPoint{ConfirmHits: k, MissFwOnly: m0, MissWithDrone: m1})
	}
	res.Table = t
	return res
}

// E3CharacteristicTable regenerates the paper's Table I from the risk
// catalog, with per-characteristic threat and control counts from the use
// case model.
func E3CharacteristicTable() *report.Table {
	uc := risk.BuildUseCase()
	t := report.NewTable("E3 (Table I): forestry-specific characteristics with model coverage",
		"id", "characteristic", "threats", "controls", "description")
	for _, cov := range risk.CoverageByCharacteristic(&uc.Model) {
		t.AddRow(cov.Characteristic.ID, cov.Characteristic.Name,
			len(cov.ThreatIDs), len(cov.ControlIDs), cov.Characteristic.Description)
	}
	return t
}

// E4Result is the Fig. 3 knowledge-transfer reproduction.
type E4Result struct {
	Transfer risk.TransferReport
	Table    *report.Table
}

// E4KnowledgeTransfer evaluates the knowledge-transfer claim: the forestry
// threat profile assembled from mining + automotive + forestry-native
// scenarios covers every Table-I characteristic.
func E4KnowledgeTransfer() E4Result {
	uc := risk.BuildUseCase()
	rep := risk.TransferKnowledge(&uc.Model)
	t := report.NewTable("E4 (Fig. 3): knowledge transfer into the forestry threat profile",
		"source_domain", "threat_scenarios")
	for _, d := range []string{risk.DomainMining, risk.DomainAutomotive, risk.DomainForestry} {
		t.AddRow(d, rep.ByDomain[d])
	}
	t.AddRow("table-I coverage", fmt.Sprintf("%v (uncovered: %d)", rep.FullyCovered, len(rep.UncoveredChars)))
	return E4Result{Transfer: rep, Table: t}
}

// E5Row is one cell of the attack × profile matrix.
type E5Row struct {
	Attack  string
	Profile string
	Report  worksite.Report
}

// E5Result is the attack-interplay matrix (Section III-B / IV-C).
type E5Result struct {
	Rows  []E5Row
	Table *report.Table
}

// E5AttackNames lists the matrix rows: the clean control followed by every
// attack class in the scenario arming registry, sorted. Deriving the list
// from the registry means a newly registered attack class appears in the
// matrix (and in every CLI help string) without touching this package.
func E5AttackNames() []string {
	return append([]string{"none"}, scenario.AttackNames()...)
}

// E5AttackMatrix runs every registered attack class against both profiles
// under identical seeds and reports safety/productivity/security outcomes.
// Each cell is the class's catalog scenario with the profile swapped in, so
// the matrix and the scenario API can never disagree about an attack's
// schedule or parameters.
func E5AttackMatrix(ctx context.Context, seed int64, d time.Duration) (E5Result, error) {
	var res E5Result
	t := report.NewTable(
		fmt.Sprintf("E5: attack x defence matrix, %v simulated, seed %d", d, seed),
		"attack", "profile", "logs", "unsafe_episodes", "collisions", "nav_err_max_m",
		"cmds_applied", "forgeries_blocked", "replays_blocked", "alert_types")
	for _, atk := range E5AttackNames() {
		spec, err := scenario.ForAttack(atk)
		if err != nil {
			return E5Result{}, fmt.Errorf("e5 %s: %w", atk, err)
		}
		for _, prof := range []struct {
			name    string
			profile worksite.SecurityProfile
		}{
			{"unsecured", worksite.Unsecured()},
			{"secured", worksite.Secured()},
		} {
			rep, err := scenario.Run(ctx, spec.WithProfile(prof.profile), seed, d)
			if err != nil {
				return E5Result{}, fmt.Errorf("e5 %s/%s: %w", atk, prof.name, err)
			}
			m := rep.Metrics
			t.AddRow(atk, prof.name, m.LogsDelivered, m.UnsafeEpisodes, m.Collisions,
				m.NavErrMaxM, m.CommandsApplied, m.ForgeriesBlocked, m.ReplaysBlocked, len(rep.Alerts))
			res.Rows = append(res.Rows, E5Row{Attack: atk, Profile: prof.name, Report: rep})
		}
	}
	res.Table = t
	return res, nil
}

// E5bRow is one agility cell of the availability ablation.
type E5bRow struct {
	Agility     bool
	Logs        int
	ChannelHops int
	JammedDrops int64
	LinkAlerts  int
}

// E5bResult is the channel-agility ablation result.
type E5bResult struct {
	Rows  []E5bRow
	Table *report.Table
}

// E5bChannelAgility is the availability ablation: a narrowband jammer against
// the secured site with and without the channel-agility response.
func E5bChannelAgility(ctx context.Context, seed int64, d time.Duration) (E5bResult, error) {
	var res E5bResult
	t := report.NewTable(
		fmt.Sprintf("E5b: narrowband jamming vs channel agility, %v simulated", d),
		"agility", "logs", "channel_hops", "jammed_drops", "link_alerts")
	spec, err := scenario.Get("rf-jamming-narrowband")
	if err != nil {
		return E5bResult{}, fmt.Errorf("e5b: %w", err)
	}
	for _, agility := range []bool{false, true} {
		prof := worksite.Secured()
		prof.ChannelAgility = agility
		rep, err := scenario.Run(ctx, spec.WithProfile(prof), seed, d)
		if err != nil {
			return E5bResult{}, fmt.Errorf("e5b: %w", err)
		}
		row := E5bRow{
			Agility:     agility,
			Logs:        rep.Metrics.LogsDelivered,
			ChannelHops: rep.Metrics.ChannelHops,
			JammedDrops: rep.Radio["jammed"],
			LinkAlerts:  rep.Alerts["link-degraded"],
		}
		t.AddRow(row.Agility, row.Logs, row.ChannelHops, row.JammedDrops, row.LinkAlerts)
		res.Rows = append(res.Rows, row)
	}
	res.Table = t
	return res, nil
}

// E5aIDSLatency measures the IDS ablation: with the IDS on, how quickly the
// de-auth flood is flagged, and how much damage (failed sends) accumulates
// before the first alert.
type E5aResult struct {
	DetectionLatency time.Duration
	Detected         bool
	SendFailures     int
	Table            *report.Table
}

// E5aIDSLatencyRun executes the IDS-latency ablation.
func E5aIDSLatencyRun(ctx context.Context, seed int64, d time.Duration) (E5aResult, error) {
	spec, err := scenario.ForAttack("deauth-flood")
	if err != nil {
		return E5aResult{}, err
	}
	prof := worksite.Secured()
	prof.ProtectedMgmt = false // leave the flood effective so the IDS has something to catch
	sess, _, err := scenario.Build(spec.WithProfile(prof), seed, d)
	if err != nil {
		return E5aResult{}, err
	}
	rep, err := sess.Run(ctx, d)
	if err != nil {
		return E5aResult{}, err
	}
	res := E5aResult{SendFailures: rep.Metrics.SendFailures}
	if ids := sess.Site().IDS(); ids != nil {
		if lat, ok := ids.DetectionLatency("deauth-flood", "deauth"); ok {
			res.DetectionLatency = lat
			res.Detected = true
		}
	}
	t := report.NewTable("E5a: IDS detection of de-auth flood (protected mgmt off)",
		"detected", "detection_latency", "send_failures_total")
	t.AddRow(res.Detected, res.DetectionLatency.String(), res.SendFailures)
	res.Table = t
	return res, nil
}
