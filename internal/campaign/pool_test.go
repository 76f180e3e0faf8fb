package campaign_test

// Pool tests: Run and Sweep share one bounded worker pool. A sweep queues
// every (cell, seed) run at once, so a pool wider than one cell's seeds
// keeps working across cell boundaries, and a panicking run fails that run
// — not the process.

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/shard"
)

// settleGoroutines returns a check that fails t if more goroutines run than
// when it was armed, after a short settle window.
func settleGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d still running after settle window", before, runtime.NumGoroutine())
	}
}

// TestSweepPoolSpansCells: two cells of one seed each on a pool of two run
// at the same time. The first completed run holds its worker until the
// second run completes; a pool that stopped at a cell boundary could not
// start the second cell until the first finished, so the wait would time
// out.
func TestSweepPoolSpansCells(t *testing.T) {
	second := make(chan struct{})
	var calls, timedOut atomic.Int64
	_, err := campaign.Sweep(context.Background(), campaign.SweepOptions{
		Scenarios: []string{"baseline", "gnss-spoof"},
		Profiles:  []string{"secured"},
		Seeds:     campaign.SeedRange{Base: 1, Count: 1},
		Parallel:  2,
		Duration:  time.Minute,
		OnRunDone: func() {
			switch calls.Add(1) {
			case 1:
				select {
				case <-second:
				case <-time.After(10 * time.Second):
					timedOut.Add(1)
				}
			case 2:
				close(second)
			}
		},
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if timedOut.Load() != 0 {
		t.Fatal("the second cell's run never started while the first cell's run held its worker")
	}
}

// TestSweepRunPanicFailsRun: a panic inside one run (here the progress
// hook) fails the sweep with an error naming that run and carrying the
// panic value and stack, and every worker goroutine exits.
func TestSweepRunPanicFailsRun(t *testing.T) {
	defer settleGoroutines(t)()
	var calls atomic.Int64
	_, err := campaign.Sweep(context.Background(), campaign.SweepOptions{
		Scenarios: []string{"baseline"},
		Profiles:  []string{"secured"},
		Seeds:     campaign.SeedRange{Base: 1, Count: 3},
		Parallel:  1,
		Duration:  time.Minute,
		OnRunDone: func() {
			if calls.Add(1) == 2 {
				panic("progress hook exploded")
			}
		},
	})
	if err == nil {
		t.Fatal("Sweep with a panicking run succeeded")
	}
	msg := err.Error()
	for _, want := range []string{"sweep baseline/secured seed 2: panic: progress hook exploded", "goroutine "} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q lacks %q", msg, want)
		}
	}
}

// TestRunPanicFailsSeed: the experiment runner shares the pool, so a
// panicking experiment fails its seed with an error naming it.
func TestRunPanicFailsSeed(t *testing.T) {
	defer settleGoroutines(t)()
	exp := campaign.Experiment{ID: "boom", Run: func(_ context.Context, p campaign.Params) (campaign.Outcome, error) {
		if p.Seed == 3 {
			panic("seed 3 exploded")
		}
		return campaign.Outcome{Metrics: map[string]float64{"seed": float64(p.Seed)}}, nil
	}}
	_, err := campaign.Run(context.Background(), exp, campaign.Options{Seeds: campaign.SeedRange{Base: 1, Count: 4}, Parallel: 4})
	if err == nil || !strings.Contains(err.Error(), "campaign boom seed 3: panic: seed 3 exploded") {
		t.Fatalf("Run with a panicking seed returned %v", err)
	}
}

// TestSweepShardEmptyCell: a shard that owns no seed of a cell still
// reports the cell, with a null perSeed and empty aggregates.
func TestSweepShardEmptyCell(t *testing.T) {
	opts := campaign.SweepOptions{
		Scenarios: []string{"baseline"},
		Profiles:  []string{"unsecured", "secured"},
		Seeds:     campaign.SeedRange{Base: 1, Count: 1},
		Duration:  time.Minute,
	}
	key := shard.Key{Scenario: "baseline", Profile: "secured", Seed: 1}
	opts.Shard = shard.Sel{Index: 1 - shard.Assign(key, 2), Count: 2}
	res, err := campaign.Sweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("shard reports %d cells, want 2", len(res.Cells))
	}
	empty := res.Cells[1].Result
	if empty.PerSeed != nil || empty.Aggregates == nil || len(empty.Aggregates) != 0 {
		t.Fatalf("unowned cell = perSeed %v, aggregates %v; want nil and empty", empty.PerSeed, empty.Aggregates)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j), `"perSeed": null,
        "aggregates": []`) {
		t.Fatalf("unowned cell's JSON shape drifted:\n%s", j)
	}
}
