package campaign_test

// Race-safety and parallel-equivalence tests for the campaign runner against
// real registered experiments. Run under the race detector:
//
//	go test -race ./internal/campaign/...
//
// The invariant: fanning an experiment out over K seeds with any worker-pool
// width yields exactly the per-seed metrics, aggregate table and JSON export
// of the serial run — the parallel runner may not perturb a single bit.

import (
	"context"
	"testing"
	"time"

	"repro/internal/campaign"
	_ "repro/internal/experiments" // populates the Default registry
)

// campaignShortRun keeps the worksite race probe fast under -race.
const campaignShortRun = 3 * time.Minute

func mustLookup(t *testing.T, id string) campaign.Experiment {
	t.Helper()
	exp, ok := campaign.Lookup(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return exp
}

// TestCampaignParallelMatchesSerial runs E2 across 8 seeds with parallel=4
// and checks every per-seed metric and the aggregate against the serial run.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	exp := mustLookup(t, "e2")
	opts := campaign.Options{
		Seeds:  campaign.SeedRange{Base: 1, Count: 8},
		Params: campaign.Params{Trials: 20},
	}
	opts.Parallel = 1
	serial, err := campaign.Run(context.Background(), exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 4
	parallel, err := campaign.Run(context.Background(), exp, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.PerSeed) != len(parallel.PerSeed) {
		t.Fatalf("per-seed counts differ: %d vs %d", len(serial.PerSeed), len(parallel.PerSeed))
	}
	for i := range serial.PerSeed {
		s, p := serial.PerSeed[i], parallel.PerSeed[i]
		if s.Seed != p.Seed {
			t.Fatalf("seed order differs at %d: %d vs %d", i, s.Seed, p.Seed)
		}
		if len(s.Metrics) != len(p.Metrics) {
			t.Fatalf("seed %d: metric counts differ", s.Seed)
		}
		for k, v := range s.Metrics {
			if pv, ok := p.Metrics[k]; !ok || pv != v {
				t.Fatalf("seed %d metric %q: serial %v, parallel %v", s.Seed, k, v, pv)
			}
		}
	}
	if serial.Table().Render() != parallel.Table().Render() {
		t.Fatal("aggregate tables differ between serial and parallel runs")
	}
	js, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(js) != string(jp) {
		t.Fatal("JSON exports differ between serial and parallel runs")
	}
}

// TestCampaignWorksiteParallel exercises the full worksite simulation (E1,
// short runs) concurrently — the sharpest race probe, since one worksite run
// touches the scheduler, radio medium, sensors, fusion, PKI and IDS.
func TestCampaignWorksiteParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	exp := mustLookup(t, "e1")
	opts := campaign.Options{
		Seeds:    campaign.SeedRange{Base: 1, Count: 4},
		Parallel: 4,
		Params:   campaign.Params{Duration: campaignShortRun},
	}
	par, err := campaign.Run(context.Background(), exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 1
	ser, err := campaign.Run(context.Background(), exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.Table().Render() != ser.Table().Render() {
		t.Fatal("worksite campaign differs between serial and parallel runs")
	}
}

// TestRegistryComplete pins the experiment inventory: every paper experiment
// is discoverable by ID.
func TestRegistryComplete(t *testing.T) {
	want := []string{"e1", "e2", "e2a", "e3", "e4", "e5", "e5a", "e5b", "e6", "e7", "e8", "e9", "e10"}
	ids := campaign.Default.IDs()
	if len(ids) != len(want) {
		t.Fatalf("registered %d experiments (%v), want %d", len(ids), ids, len(want))
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("registration order: got %v", ids)
		}
		exp, ok := campaign.Lookup(id)
		if !ok {
			t.Fatalf("%q not registered", id)
		}
		if exp.Section == "" || exp.Description == "" {
			t.Fatalf("%q missing section/description", id)
		}
	}
}
