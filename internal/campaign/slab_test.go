package campaign

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/worksite"
)

// TestSlabRunsMatchFresh: sweep runs take their random streams from a
// recycled slab, re-seeded in place for each run. Built one after another
// on one slab, as a serial sweep's worker builds them, every run's report
// must equal a fresh scenario.Build byte for byte; and a Parallel: 1 sweep,
// whose runs share the pooled slab, must record each fresh report's
// metrics.
func TestSlabRunsMatchFresh(t *testing.T) {
	ctx := context.Background()
	names := []string{"baseline", "gnss-spoof", "multi-attack"}
	seeds := SeedRange{Base: 3, Count: 3}
	const d = 3 * time.Minute

	run := func(sess *worksite.Session, err error) worksite.Report {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunUntil(ctx, nil); err != nil {
			t.Fatal(err)
		}
		return sess.Report()
	}
	var slab rng.Slab
	comm := &worksite.Commissioner{}
	type runKey struct {
		cell string
		seed int64
	}
	want := map[runKey]map[string]float64{}
	for _, name := range names {
		spec, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, profName := range scenario.Profiles() {
			prof, err := scenario.ResolveProfile(profName)
			if err != nil {
				t.Fatal(err)
			}
			cell := spec.WithProfile(prof)
			batch, err := scenario.NewBatchWith(cell, comm)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds.Seeds() {
				slab.Reset()
				sess, _, err := batch.BuildOn(&slab, seed, d)
				got := run(sess, err)
				sess, _, err = scenario.Build(cell, seed, d)
				fresh := run(sess, err)
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				freshJSON, err := json.Marshal(fresh)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotJSON) != string(freshJSON) {
					t.Fatalf("%s/%s seed %d: slab report differs from a fresh build\nslab:  %s\nfresh: %s",
						name, profName, seed, gotJSON, freshJSON)
				}
				want[runKey{name + "/" + profName, seed}] = SweepMetrics(fresh)
			}
		}
	}

	res, err := Sweep(ctx, SweepOptions{Scenarios: names, Seeds: seeds, Parallel: 1, Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, c := range res.Cells {
		for _, r := range c.Result.PerSeed {
			runs++
			key := runKey{c.Scenario + "/" + c.Profile, r.Seed}
			w := want[key]
			if len(r.Metrics) != len(w) {
				t.Fatalf("%v: %d metrics, fresh %d", key, len(r.Metrics), len(w))
			}
			for k, v := range w {
				if r.Metrics[k] != v {
					t.Fatalf("%v: %s = %v, fresh %v", key, k, r.Metrics[k], v)
				}
			}
		}
	}
}
