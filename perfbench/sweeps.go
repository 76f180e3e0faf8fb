package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/worksim"
)

// sweepOp runs operation i of a sweep workload: one Sweep plus its JSON
// export, the bytes a campaign user keeps.
func sweepOp(rec *recorder, i int, opts worksim.SweepOptions) {
	sp := rec.tr.start("sweep", 0, int64(i))
	t0 := clock()
	res, err := worksim.Sweep(context.Background(), opts)
	var out []byte
	if err == nil {
		out, err = res.JSON()
	}
	lat := clock() - t0
	sp.end()
	runs := 0
	if err == nil {
		for _, c := range res.Cells {
			runs += len(c.Result.PerSeed)
		}
	}
	rec.op(i, runs, lat, out, err)
}

// serialReference runs a sweep at Parallel 1 and returns the digest of its
// JSON export: the reference operation 0 of a sweep workload must match,
// because parallelism may not change a byte.
func serialReference(opts worksim.SweepOptions) ([sha256.Size]byte, error) {
	opts.Parallel = 1
	opts.Stats = nil
	res, err := worksim.Sweep(context.Background(), opts)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("serial reference: %w", err)
	}
	out, err := res.JSON()
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(out), nil
}

// checkDigest requires operation i's output to have digest want.
func checkDigest(rec *recorder, i int, want [sha256.Size]byte) error {
	if got, ok := rec.digest(i); !ok || got != want {
		return fmt.Errorf("op %d: output differs from the reference", i)
	}
	return nil
}

// sweepWide is the full catalog at one seed per cell: every run pays its
// own commission and the per-cell pool drains at every cell boundary.
func sweepWide() *workload {
	return &workload{
		name: "sweep-wide",
		why:  "full catalog x 2 profiles x 1 seed: one commission per run and a per-cell pool that drains, so campaign scheduling and commissioning show",
		prepare: func(rc *repContext) (*repetition, error) {
			opts := func(i int) worksim.SweepOptions {
				return worksim.SweepOptions{
					Seeds:    worksim.SeedRange{Base: rc.seed + int64(i), Count: 1},
					Parallel: runtime.GOMAXPROCS(0),
					Duration: rc.sz.horizon,
				}
			}
			ref, err := serialReference(opts(0))
			if err != nil {
				return nil, err
			}
			return &repetition{
				run: func(rec *recorder) error {
					for i := 0; i < rc.sz.wideOps; i++ {
						sweepOp(rec, i, opts(i))
					}
					return nil
				},
				check: func(rec *recorder) error { return checkDigest(rec, 0, ref) },
			}, nil
		},
	}
}

// sweepDeep is one secured multi-attack cell over many seeds, cached and
// checkpointed into fresh directories: one commission serves every seed and
// the pool stays full, so the simulation tick dominates.
func sweepDeep() *workload {
	return &workload{
		name: "sweep-deep",
		why:  "multi-attack x secured x 64 seeds with a fresh cache and checkpoint: one commission per sweep and a full pool, so the tick and the write side of the cache show",
		prepare: func(rc *repContext) (*repetition, error) {
			stats := make([]worksim.SweepStats, rc.sz.deepOps)
			opts := func(i int, tag string) worksim.SweepOptions {
				dir := filepath.Join(rc.dir, fmt.Sprintf("%s-%d", tag, i))
				return worksim.SweepOptions{
					Scenarios:     []string{"multi-attack"},
					Profiles:      []string{"secured"},
					Seeds:         worksim.SeedRange{Base: rc.seed + int64(i*rc.sz.deepSeeds), Count: rc.sz.deepSeeds},
					Parallel:      runtime.GOMAXPROCS(0),
					Duration:      rc.sz.horizon,
					CacheDir:      filepath.Join(dir, "cache"),
					CheckpointDir: filepath.Join(dir, "checkpoint"),
					Stats:         &stats[i],
				}
			}
			ref, err := serialReference(opts(0, "reference"))
			if err != nil {
				return nil, err
			}
			return &repetition{
				run: func(rec *recorder) error {
					for i := 0; i < rc.sz.deepOps; i++ {
						sweepOp(rec, i, opts(i, "op"))
					}
					return nil
				},
				check: func(rec *recorder) error {
					for i := range stats {
						v := stats[i].View()
						countCache(rec, v)
						if v.Executed != int64(rc.sz.deepSeeds) || v.CacheHits != 0 || v.Resumed != 0 {
							return fmt.Errorf("op %d: a fresh cache and checkpoint served runs: %+v", i, v)
						}
					}
					return checkDigest(rec, 0, ref)
				},
			}, nil
		},
	}
}

// warmCache re-runs a campaign whose every run is already cached: no tick
// runs, so cache reads, aggregation and the JSON export are all the work.
func warmCache() *workload {
	return &workload{
		name: "campaign-warm-cache",
		why:  "catalog x 2 profiles x 8 seeds, every run a cache hit: no ticks, so the per-cell commissioning a warm sweep still pays, cache reads, aggregation and JSON export show",
		prepare: func(rc *repContext) (*repetition, error) {
			opts := worksim.SweepOptions{
				Seeds:    worksim.SeedRange{Base: rc.seed, Count: rc.sz.warmSeeds},
				Parallel: runtime.GOMAXPROCS(0),
				Duration: rc.sz.shortHorizon,
				CacheDir: filepath.Join(rc.dir, "cache"),
			}
			var fill worksim.SweepStats
			opts.Stats = &fill
			res, err := worksim.Sweep(context.Background(), opts)
			if err != nil {
				return nil, fmt.Errorf("cache fill: %w", err)
			}
			cold, err := res.JSON()
			if err != nil {
				return nil, err
			}
			if v := fill.View(); v.Executed == 0 || v.CacheHits != 0 {
				return nil, fmt.Errorf("cache fill was not cold: %+v", v)
			}
			ref, runs := sha256.Sum256(cold), int(fill.View().Executed)
			stats := make([]worksim.SweepStats, rc.sz.warmOps)
			return &repetition{
				run: func(rec *recorder) error {
					for i := 0; i < rc.sz.warmOps; i++ {
						o := opts
						o.Stats = &stats[i]
						sweepOp(rec, i, o)
					}
					return nil
				},
				check: func(rec *recorder) error {
					for i := range stats {
						v := stats[i].View()
						countCache(rec, v)
						if v.CacheHits != int64(runs) || v.Executed != 0 || v.CacheCorrupt != 0 {
							return fmt.Errorf("op %d: not every run was a verified hit: %+v", i, v)
						}
						if err := checkDigest(rec, i, ref); err != nil {
							return err
						}
					}
					return nil
				},
			}, nil
		},
	}
}

// countCache adds a sweep's result-cache counters to the per-layer counters.
func countCache(rec *recorder, v worksim.SweepStatsView) {
	rec.count("cache_hits", float64(v.CacheHits))
	rec.count("cache_lookups", float64(v.CacheHits+v.CacheMisses+v.CacheCorrupt))
	rec.count("cache_corrupt", float64(v.CacheCorrupt))
}
