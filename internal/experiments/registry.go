package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/risk"
	"repro/internal/worksite"
)

// This file registers every experiment in the campaign registry so the
// benchmark harness, the campaign CLI and future tooling discover them by ID
// instead of hard-coding loose function calls. Each registration carries the
// metric extraction for its result type. Every table, figure and metric is a
// deterministic function of (seed, params): wall-clock costs such as record
// throughput per rekey interval are measured only by the testing.B
// benchmarks (BenchmarkSealOpen256), never by an experiment.

func init() {
	campaign.Register(campaign.Experiment{
		ID:          "e1",
		Section:     "Fig. 1",
		Description: "worksite baseline: productivity and safety, unsecured vs secured",
		Defaults:    campaign.Params{Duration: 20 * time.Minute},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E1WorksiteBaseline(ctx, p.Seed, p.Duration)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := make(map[string]float64)
			addWorksiteMetrics(m, "unsecured", res.Unsecured)
			addWorksiteMetrics(m, "secured", res.Secured)
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e2",
		Section:     "Fig. 2",
		Description: "people-detection miss rate vs occlusion, forwarder-only vs with drone",
		Defaults:    campaign.Params{Trials: 60},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res := E2DronePOV(p.Seed, p.Trials)
			m := make(map[string]float64)
			var sumFw, sumDrone float64
			for _, pt := range res.Points {
				sumFw += pt.MissFwOnly
				sumDrone += pt.MissWithDrone
			}
			n := float64(len(res.Points))
			m["miss_fw_only/mean"] = sumFw / n
			m["miss_with_drone/mean"] = sumDrone / n
			last := res.Points[len(res.Points)-1]
			m[fmt.Sprintf("miss_fw_only/occ=%.2f", last.Occlusion)] = last.MissFwOnly
			m[fmt.Sprintf("miss_with_drone/occ=%.2f", last.Occlusion)] = last.MissWithDrone
			m[fmt.Sprintf("miss_reduction/occ=%.2f", last.Occlusion)] = last.MissFwOnly - last.MissWithDrone
			return campaign.Outcome{Figures: []*report.Figure{res.Figure}, Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e2a",
		Section:     "Fig. 2 ablation",
		Description: "fusion confirmation-policy ablation (K = 1..3 hits)",
		Defaults:    campaign.Params{Trials: 40},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res := E2aFusionPolicy(p.Seed, p.Trials)
			m := make(map[string]float64)
			for _, pt := range res.Points {
				m[fmt.Sprintf("miss_fw_only/k=%d", pt.ConfirmHits)] = pt.MissFwOnly
				m[fmt.Sprintf("miss_with_drone/k=%d", pt.ConfirmHits)] = pt.MissWithDrone
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:              "e3",
		Section:         "Table I",
		Description:     "forestry-specific characteristics with threat/control coverage",
		SeedIndependent: true,
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			t := E3CharacteristicTable()
			uc := risk.BuildUseCase()
			m := map[string]float64{"characteristics": float64(t.Rows())}
			var threats, controls float64
			for _, cov := range risk.CoverageByCharacteristic(&uc.Model) {
				threats += float64(len(cov.ThreatIDs))
				controls += float64(len(cov.ControlIDs))
			}
			m["threat_links"] = threats
			m["control_links"] = controls
			return campaign.Outcome{Tables: tables(t), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:              "e4",
		Section:         "Fig. 3",
		Description:     "knowledge transfer into the forestry threat profile",
		SeedIndependent: true,
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res := E4KnowledgeTransfer()
			m := map[string]float64{
				"scenarios/mining":     float64(res.Transfer.ByDomain[risk.DomainMining]),
				"scenarios/automotive": float64(res.Transfer.ByDomain[risk.DomainAutomotive]),
				"scenarios/forestry":   float64(res.Transfer.ByDomain[risk.DomainForestry]),
				"fully_covered":        b2f(res.Transfer.FullyCovered),
				"uncovered":            float64(len(res.Transfer.UncoveredChars)),
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e5",
		Section:     "III-B / IV-C",
		Description: "attack x defence matrix over every implemented attack class",
		Defaults:    campaign.Params{Duration: 10 * time.Minute},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E5AttackMatrix(ctx, p.Seed, p.Duration)
			if err != nil {
				return campaign.Outcome{}, err
			}
			// Every row exports the same security-outcome keys: which ones
			// are non-zero is itself an experimental result, and keeping the
			// export uniform means no attack-name knowledge outside the
			// scenario registry.
			m := make(map[string]float64)
			for _, row := range res.Rows {
				key := row.Attack + "/" + row.Profile
				mm := row.Report.Metrics
				m["logs/"+key] = float64(mm.LogsDelivered)
				m["unsafe/"+key] = float64(mm.UnsafeEpisodes)
				m["cmds_applied/"+key] = float64(mm.CommandsApplied)
				m["forgeries_blocked/"+key] = float64(mm.ForgeriesBlocked)
				m["replays_blocked/"+key] = float64(mm.ReplaysBlocked)
				m["nav_err_max_m/"+key] = mm.NavErrMaxM
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e5a",
		Section:     "IV-C ablation",
		Description: "IDS detection latency for the de-auth flood",
		Defaults:    campaign.Params{Duration: 8 * time.Minute},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E5aIDSLatencyRun(ctx, p.Seed, p.Duration)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := map[string]float64{
				"detected":            b2f(res.Detected),
				"detection_latency_s": res.DetectionLatency.Seconds(),
				"send_failures":       float64(res.SendFailures),
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e5b",
		Section:     "IV-C ablation",
		Description: "narrowband jamming vs the channel-agility response",
		Defaults:    campaign.Params{Duration: 10 * time.Minute},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E5bChannelAgility(ctx, p.Seed, p.Duration)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := make(map[string]float64)
			for _, row := range res.Rows {
				key := "agility=off"
				if row.Agility {
					key = "agility=on"
				}
				m["logs/"+key] = float64(row.Logs)
				m["channel_hops/"+key] = float64(row.ChannelHops)
				m["jammed_drops/"+key] = float64(row.JammedDrops)
				m["link_alerts/"+key] = float64(row.LinkAlerts)
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:              "e6",
		Section:         "IV-D",
		Description:     "combined TARA + IEC TS 63074 interplay, untreated vs treated",
		SeedIndependent: true,
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E6CombinedRisk()
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := map[string]float64{
				"scenarios_assessed":   float64(len(res.Before)),
				"risk_total/untreated": sumRisk(res.Before),
				"risk_total/treated":   sumRisk(res.After),
				"meets_plr/untreated":  countMeets(res.InterBefore),
				"meets_plr/treated":    countMeets(res.InterAfter),
			}
			return campaign.Outcome{Tables: tables(res.Register, res.Interplay), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e7",
		Section:     "V",
		Description: "assurance case and CE conformity, secured vs unsecured pathway",
		Defaults:    campaign.Params{Duration: 10 * time.Minute},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E7Assurance(ctx, p.Seed, p.Duration)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := map[string]float64{
				"sac_score/secured":           res.Secured.SACEval.Score,
				"sac_score/unsecured":         res.Unsecured.SACEval.Score,
				"sac_supported/secured":       b2f(res.Secured.SACEval.Supported),
				"ce_ready/secured":            b2f(res.Secured.Conformity.Ready),
				"ce_ready/unsecured":          b2f(res.Unsecured.Conformity.Ready),
				"mandatory_covered/secured":   float64(res.Secured.Conformity.MandatoryCovered),
				"mandatory_covered/unsecured": float64(res.Unsecured.Conformity.MandatoryCovered),
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e8",
		Section:     "III-D",
		Description: "simulation-validity metrics discriminate synthetic sources",
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E8SimValidity(p.Seed)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := make(map[string]float64)
			discriminates := 1.0
			for _, r := range res.Results {
				m["ks/"+r.Name] = r.KS
				m["valid/"+r.Name] = b2f(r.Valid)
				if (r.Name == "matched") != r.Valid {
					discriminates = 0
				}
			}
			m["discriminates"] = discriminates
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e9",
		Section:     "IV-A/B",
		Description: "secure-substrate handshake and boot-chain tamper sweep",
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res, err := E9SecureSubstrate(p.Seed)
			if err != nil {
				return campaign.Outcome{}, err
			}
			m := map[string]float64{
				"handshake_ok":     b2f(res.HandshakeOK),
				"tampers_detected": float64(res.TamperTable.Rows() - 1),
			}
			return campaign.Outcome{Tables: tables(res.TamperTable), Metrics: m}, nil
		},
	})

	campaign.Register(campaign.Experiment{
		ID:          "e10",
		Section:     "ISO 21448 §10",
		Description: "SOTIF unknown-space exploration, forwarder-only vs with drone",
		Defaults:    campaign.Params{Scenarios: 12, Trials: 25},
		Run: func(ctx context.Context, p campaign.Params) (campaign.Outcome, error) {
			res := E10SOTIFExploration(p.Seed, p.Scenarios, p.Trials)
			m := map[string]float64{
				"unknown_unsafe/forwarder-only": float64(res.Improvement.UnsafeBefore),
				"unknown_unsafe/with-drone":     float64(res.Improvement.UnsafeAfter),
				"moved_to_safe":                 float64(res.Improvement.Moved),
				"residual/forwarder-only":       res.WithoutDrone.ResidualRisk,
				"residual/with-drone":           res.WithDrone.ResidualRisk,
				"discovered/forwarder-only":     float64(len(res.WithoutDrone.Discovered)),
				"discovered/with-drone":         float64(len(res.WithDrone.Discovered)),
			}
			return campaign.Outcome{Tables: tables(res.Table), Metrics: m}, nil
		},
	})
}

// tables wraps a table list literal.
func tables(ts ...*report.Table) []*report.Table { return ts }

// addWorksiteMetrics flattens a worksite report's KPIs under a profile prefix.
func addWorksiteMetrics(m map[string]float64, profile string, r worksite.Report) {
	mm := r.Metrics
	m["logs/"+profile] = float64(mm.LogsDelivered)
	m["distance_m/"+profile] = mm.DistanceM
	m["safety_stops/"+profile] = float64(mm.SafetyStops)
	m["unsafe/"+profile] = float64(mm.UnsafeEpisodes)
	m["collisions/"+profile] = float64(mm.Collisions)
	m["tracks_confirmed/"+profile] = float64(mm.TracksConfirmed)
	m["false_alarms/"+profile] = float64(mm.FalseAlarms)
	m["min_worker_dist_m/"+profile] = mm.MinWorkerDistM
}

func sumRisk(rs []risk.AssessedRisk) float64 {
	var s float64
	for _, r := range rs {
		s += float64(r.RiskValue)
	}
	return s
}

func countMeets(rs []risk.SecurityInformedPL) float64 {
	var n float64
	for _, r := range rs {
		if r.MeetsRequired {
			n++
		}
	}
	return n
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
