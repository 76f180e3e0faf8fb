package repro

// bench_test.go regenerates every table and figure of the paper reproduction
// (one benchmark per experiment ID, plus the ablations and micro-benchmarks
// of the secure substrate). Run with:
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks are driven through the campaign registry
// (internal/campaign): each looks its experiment up by ID, runs it at the
// registered defaults, prints its tables/figures once (first iteration) and
// reports the registered domain metrics via b.ReportMetric so shape
// comparisons are visible directly in the benchmark output.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pki"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/secureboot"
	"repro/internal/sotif"
	"repro/internal/worksite"
	"repro/worksim/bench"
)

const benchSeed = 42

var printOnce sync.Map

func printTableOnce(key, rendered string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", rendered)
	}
}

// benchExperiment runs the registered experiment at its default parameters
// (seed benchSeed), prints its artifacts once, and reports the named metrics.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	exp, ok := campaign.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := exp.Defaults
	p.Seed = benchSeed
	var out campaign.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		out, err = exp.Run(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		for j, t := range out.Tables {
			printTableOnce(fmt.Sprintf("%s-t%d", id, j), t.Render())
		}
		for j, f := range out.Figures {
			printTableOnce(fmt.Sprintf("%s-f%d", id, j), f.Render())
		}
	}
	for _, m := range metrics {
		v, ok := out.Metrics[m]
		if !ok {
			b.Fatalf("experiment %q exports no metric %q", id, m)
		}
		b.ReportMetric(v, m)
	}
}

// BenchmarkE1_WorksiteBaseline — Fig. 1: the partially autonomous worksite
// operates productively and safely under both profiles.
func BenchmarkE1_WorksiteBaseline(b *testing.B) {
	benchExperiment(b, "e1", "logs/secured", "unsafe/secured")
}

// BenchmarkE2_DronePOVDetection — Fig. 2: the drone's additional point of
// view removes occlusion-caused misses across the occlusion sweep.
func BenchmarkE2_DronePOVDetection(b *testing.B) {
	benchExperiment(b, "e2", "miss_reduction/occ=0.40")
}

// BenchmarkE2a_FusionPolicy — ablation: confirmation threshold K.
func BenchmarkE2a_FusionPolicy(b *testing.B) {
	benchExperiment(b, "e2a", "miss_with_drone/k=2")
}

// BenchmarkE3_CharacteristicTable — Table I regenerated from the risk
// catalog with model coverage.
func BenchmarkE3_CharacteristicTable(b *testing.B) {
	benchExperiment(b, "e3", "characteristics")
}

// BenchmarkE4_KnowledgeTransfer — Fig. 3: mining + automotive + forestry
// scenarios cover all Table-I characteristics.
func BenchmarkE4_KnowledgeTransfer(b *testing.B) {
	benchExperiment(b, "e4", "fully_covered")
}

// BenchmarkE5_AttackSafetyInterplay — attack × defence matrix (Sections
// III-B, IV-C).
func BenchmarkE5_AttackSafetyInterplay(b *testing.B) {
	benchExperiment(b, "e5",
		"cmds_applied/command-injection/unsecured",
		"cmds_applied/command-injection/secured")
}

// BenchmarkE5b_ChannelAgility — ablation: narrowband jamming vs the
// channel-agility response.
func BenchmarkE5b_ChannelAgility(b *testing.B) {
	benchExperiment(b, "e5b", "logs/agility=on", "logs/agility=off")
}

// BenchmarkE5a_IDSLatency — ablation: IDS detection latency for the de-auth
// flood.
func BenchmarkE5a_IDSLatency(b *testing.B) {
	benchExperiment(b, "e5a", "detection_latency_s")
}

// BenchmarkE6_CombinedRiskAssessment — TARA + interplay, before/after
// treatment (IEC TS 63074).
func BenchmarkE6_CombinedRiskAssessment(b *testing.B) {
	benchExperiment(b, "e6", "meets_plr/treated")
}

// BenchmarkE7_AssuranceCase — Section V: secured pathway yields a supported
// SAC and a CE-ready verdict; the unsecured baseline does not.
func BenchmarkE7_AssuranceCase(b *testing.B) {
	benchExperiment(b, "e7", "sac_score/secured", "sac_score/unsecured")
}

// BenchmarkE8_SimulationValidity — Section III-D: validity metrics
// discriminate representative from unrepresentative synthetic data.
func BenchmarkE8_SimulationValidity(b *testing.B) {
	benchExperiment(b, "e8", "discriminates")
}

// BenchmarkE9_SecureSubstrate — secure-channel handshake and boot-chain
// tamper sweep (throughput lives in BenchmarkSealOpen256).
func BenchmarkE9_SecureSubstrate(b *testing.B) {
	benchExperiment(b, "e9", "tampers_detected")
}

// BenchmarkE10_SOTIFExploration — ISO 21448 unknown-space discovery: the
// drone shrinks the unknown-unsafe area.
func BenchmarkE10_SOTIFExploration(b *testing.B) {
	benchExperiment(b, "e10", "moved_to_safe")
}

// BenchmarkSim runs the tracked benchmark catalog (worksim/bench) — the same
// named micro/macro benchmarks cmd/bench persists to BENCH_<date>.json, so CI
// exercises exactly what the perf-tracking tool records.
func BenchmarkSim(b *testing.B) {
	for _, bm := range bench.Catalog() {
		b.Run(bm.Name, bm.Fn)
	}
}

// --- campaign fan-out benchmarks ---

// benchCampaign fans e1 (short run) over 8 seeds with the given pool width;
// comparing Serial vs Parallel shows the multi-seed speedup on multi-core
// hosts.
func benchCampaign(b *testing.B, parallel int) {
	exp, ok := campaign.Lookup("e1")
	if !ok {
		b.Fatal("e1 not registered")
	}
	opts := campaign.Options{
		Seeds:    campaign.SeedRange{Base: 1, Count: 8},
		Parallel: parallel,
		Params:   campaign.Params{Duration: 4 * time.Minute},
	}
	logs := -1.0
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background(), exp, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.Aggregates {
			if a.Metric == "logs/secured" {
				logs = a.Mean
			}
		}
		printTableOnce(fmt.Sprintf("campaign-e1-p%d", parallel), res.Table().Render())
	}
	if logs < 0 {
		b.Fatal(`campaign e1 exported no "logs/secured" aggregate`)
	}
	b.ReportMetric(logs, "mean-logs/secured")
}

// BenchmarkCampaignE1_8Seeds_Serial — baseline: one worker.
func BenchmarkCampaignE1_8Seeds_Serial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignE1_8Seeds_Parallel — bounded pool at 8 workers.
func BenchmarkCampaignE1_8Seeds_Parallel(b *testing.B) { benchCampaign(b, 8) }

// --- micro-benchmarks of the secure substrate ---

// BenchmarkHandshake measures the full 3-message SIGMA handshake.
func BenchmarkHandshake(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.NewChannelPair(benchSeed, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealOpen256 measures one sealed+opened 256-byte record per rekey
// interval (0 is securechan.DefaultRekeyInterval): the security/throughput
// ablation of the secure channel.
func BenchmarkSealOpen256(b *testing.B) {
	for _, interval := range []uint64{0, 16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("rekey=%d", interval), func(b *testing.B) {
			init, resp, err := experiments.NewChannelPair(benchSeed, interval)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := init.Seal(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := resp.Open(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifiedBoot measures a full three-stage verified boot.
func BenchmarkVerifiedBoot(b *testing.B) {
	r := rng.New(benchSeed)
	ca, err := pki.NewCA("bench-vendor", r.Derive("ca"))
	if err != nil {
		b.Fatal(err)
	}
	vendor, err := ca.Issue("signing", pki.RoleOperator, 0, 24*time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	var chain secureboot.Chain
	for _, im := range []secureboot.Image{
		{Name: "bl", Version: 1, Content: make([]byte, 4096)},
		{Name: "rtos", Version: 1, Content: make([]byte, 65536)},
		{Name: "app", Version: 1, Content: make([]byte, 262144)},
	} {
		chain.Stages = append(chain.Stages, secureboot.Stage{Image: im, Manifest: secureboot.SignManifest(vendor, im)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := secureboot.NewDevice(vendor.Cert)
		if _, err := dev.Boot(chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorksiteMinute measures one simulated minute of the full secured
// worksite (scheduler, radio, sensors, fusion, safety, secure channels).
func BenchmarkWorksiteMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := scenario.Baseline().WithProfile(worksite.Secured()).Config(benchSeed)
		sess, err := worksite.NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(context.Background(), time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionTrial measures one people-detection trial of the E2
// evaluator.
func BenchmarkDetectionTrial(b *testing.B) {
	sc := sotif.Scenario{ID: "bench", OcclusionDensity: 0.25}
	for i := 0; i < b.N; i++ {
		core.DetectionMissRate(benchSeed, sc, true, 1)
	}
}

// BenchmarkRiskAssessment measures the full TARA over the use-case model.
func BenchmarkRiskAssessment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6CombinedRisk(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathway measures the complete certification-pathway pipeline with
// a short evidence run.
func BenchmarkPathway(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.RunPathway(context.Background(), core.PathwayOptions{
			Seed: benchSeed, Secured: true,
			EvidenceRun: 5 * time.Minute, SOTIFTrials: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
