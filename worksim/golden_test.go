package worksim_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/pathway"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestSweepJSONGolden locks the public sweep JSON export — field names,
// order and number formatting — against testdata/sweep.golden.json. The
// export is the façade's machine-readable contract with downstream
// consumers, so any refactor that changes it must do so deliberately:
// regenerate with
//
//	go test ./worksim -run TestSweepJSONGolden -update
//
// and justify the diff in review. The shard case pins one shard's output
// as written, before MergeSweeps: its shard header and per-cell results
// over the seeds it owns. Merge recomputes aggregates and reads a null
// perSeed like an empty one, so the merge tests cannot see a drift there.
func TestSweepJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		shard      worksim.ShardSel
	}{
		{"whole", "sweep.golden.json", worksim.ShardSel{}},
		{"shard0of2", "sweep.shard0of2.golden.json", worksim.ShardSel{Index: 0, Count: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := worksim.Sweep(context.Background(), worksim.SweepOptions{
				Scenarios:   []string{"baseline", "gnss-spoof"},
				Profiles:    []string{"unsecured", "secured"},
				Seeds:       worksim.SeedRange{Base: 1, Count: 2},
				Parallel:    2,
				Duration:    2 * time.Minute,
				SampleEvery: time.Minute, // timeseries fields are part of the schema
				Shard:       tc.shard,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create it)", err)
			}
			if string(got) != string(want) {
				t.Fatalf("sweep JSON drifted from %s (%d vs %d bytes).\n"+
					"If the change to the public schema is intentional, regenerate with -update and call it out in review.\ngot:\n%s",
					path, len(got), len(want), got)
			}
		})
	}
}

// TestPathwayJSONGolden locks the paper's headline output — risk registers,
// operational evidence, assurance case evaluation and CE verdict — under both
// profiles. The default case runs seeds 1 and 42 with default options
// against testdata/pathway.golden.json; the evidence10m case runs seed 42 at
// the 10-minute evidence run that E7, sac-gen and ce-check default to.
// Regenerate with
//
//	go test ./worksim -run TestPathwayJSONGolden -update
//
// and justify the diff in review.
func TestPathwayJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		name, file  string
		seeds       []int64
		evidenceRun time.Duration
	}{
		{"default", "pathway.golden.json", []int64{1, 42}, 0},
		{"evidence10m", "pathway.evidence10m.golden.json", []int64{42}, 10 * time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var results []*pathway.Result
			for _, seed := range tc.seeds {
				for _, secured := range []bool{false, true} {
					res, err := pathway.Run(context.Background(), pathway.Options{
						Seed: seed, Secured: secured, EvidenceRun: tc.evidenceRun})
					if err != nil {
						t.Fatalf("seed %d secured=%v: %v", seed, secured, err)
					}
					results = append(results, res)
				}
			}
			got, err := json.MarshalIndent(results, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create it)", err)
			}
			if string(got) != string(want) {
				t.Fatalf("pathway JSON drifted from %s (%d vs %d bytes).\n"+
					"If the change to the public schema is intentional, regenerate with -update and call it out in review.\ngot:\n%s",
					path, len(got), len(want), got)
			}
		})
	}
}
