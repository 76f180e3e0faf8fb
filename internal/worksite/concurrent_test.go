package worksite

// Concurrent-use safety: the campaign runner executes many Site instances at
// once, so two sites built from the same config must neither share state nor
// perturb each other. Every random stream hangs off the per-site rng root —
// this test pins that property under the race detector.

import (
	"context"
	"sync"
	"testing"
	"time"
)

func runSecured(t *testing.T, seed int64, d time.Duration) Report {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Profile = Secured()
	site, err := New(cfg)
	if err != nil {
		t.Fatalf("worksite: %v", err)
	}
	rep, err := (&Session{site: site}).Run(context.Background(), d)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rep
}

func TestConcurrentSitesIndependent(t *testing.T) {
	const d = 3 * time.Minute
	baseline := runSecured(t, 42, d)

	// Run the same seed four times concurrently, alongside different seeds
	// as interference.
	var wg sync.WaitGroup
	reports := make([]Report, 4)
	for i := range reports {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			cfg := DefaultConfig(42)
			cfg.Profile = Secured()
			site, err := New(cfg)
			if err != nil {
				t.Errorf("worksite: %v", err)
				return
			}
			rep, err := (&Session{site: site}).Run(context.Background(), d)
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			reports[slot] = rep
		}(i)
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cfg := DefaultConfig(seed)
			site, err := New(cfg)
			if err != nil {
				t.Errorf("worksite: %v", err)
				return
			}
			if _, err := (&Session{site: site}).Run(context.Background(), d); err != nil {
				t.Errorf("run: %v", err)
			}
		}(int64(100 + i))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, rep := range reports {
		if rep.Metrics != baseline.Metrics {
			t.Fatalf("concurrent run %d diverged from serial baseline:\n%+v\nvs\n%+v",
				i, rep.Metrics, baseline.Metrics)
		}
	}
}
