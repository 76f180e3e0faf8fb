package campaign_test

// Scale-out tests: sharding and the content-addressed result cache must
// never change a byte of sweep output — only where the bytes come from. The
// byte-identity comparisons here are the contract the CLI's
// -shard/-merge/-cache modes stand on, including a genuine process kill
// (re-exec helper) between seeds and a resume from the cache it left.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/version"
)

// scaleOpts is the shared small-but-nontrivial campaign every test in this
// file runs: 2 scenarios × 2 profiles × 4 seeds = 16 runs.
func scaleOpts() campaign.SweepOptions {
	return campaign.SweepOptions{
		Scenarios: []string{"baseline", "gnss-spoof"},
		Profiles:  []string{"unsecured", "secured"},
		Seeds:     campaign.SeedRange{Base: 1, Count: 4},
		Parallel:  4,
		Duration:  2 * time.Minute,
	}
}

func sweepBytes(t *testing.T, opts campaign.SweepOptions) []byte {
	t.Helper()
	res, err := campaign.Sweep(context.Background(), opts)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	return j
}

// TestShardMergeByteIdentity: running every shard in isolation and merging
// reproduces the single-process sweep byte for byte — through the typed API
// and through the serialized (CLI) surface.
func TestShardMergeByteIdentity(t *testing.T) {
	single := sweepBytes(t, scaleOpts())

	const shards = 3
	parts := make([]*campaign.SweepResult, shards)
	blobs := make([][]byte, shards)
	for i := 0; i < shards; i++ {
		opts := scaleOpts()
		opts.Shard = shard.Sel{Index: i, Count: shards}
		res, err := campaign.Sweep(context.Background(), opts)
		if err != nil {
			t.Fatalf("Sweep(shard %d): %v", i, err)
		}
		if res.Shard == nil || res.Shard.Index != i || res.Shard.Count != shards {
			t.Fatalf("shard %d result header = %+v", i, res.Shard)
		}
		if len(res.Cells) != 4 {
			t.Fatalf("shard %d reports %d cells, want all 4", i, len(res.Cells))
		}
		parts[i] = res
		if blobs[i], err = res.JSON(); err != nil {
			t.Fatalf("JSON(shard %d): %v", i, err)
		}
	}

	// Merge in a scrambled order: input order must not matter.
	merged, err := campaign.MergeSweeps([]*campaign.SweepResult{parts[2], parts[0], parts[1]})
	if err != nil {
		t.Fatalf("MergeSweeps: %v", err)
	}
	if merged.Shard != nil {
		t.Fatal("merged result still carries a shard header")
	}
	got, err := merged.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if string(got) != string(single) {
		t.Fatal("merged shard output differs from the single-process sweep")
	}

	_, fromBlobs, err := campaign.MergeSweepJSON(blobs)
	if err != nil {
		t.Fatalf("MergeSweepJSON: %v", err)
	}
	if string(fromBlobs) != string(single) {
		t.Fatal("MergeSweepJSON output differs from the single-process sweep")
	}

	// The shard partition actually split the work: no shard ran everything,
	// and together they ran each run exactly once.
	totalRuns := 0
	for _, p := range parts {
		runs := 0
		for _, c := range p.Cells {
			runs += len(c.Result.PerSeed)
		}
		if runs == 16 {
			t.Fatal("one shard owned every run; the partition did not split")
		}
		totalRuns += runs
	}
	if totalRuns != 16 {
		t.Fatalf("shards ran %d runs in total, want exactly 16", totalRuns)
	}
}

// TestWarmCacheByteIdentity: a second sweep over a warm cache executes
// nothing, serves every run from disk, and produces identical bytes.
func TestWarmCacheByteIdentity(t *testing.T) {
	dir := t.TempDir()
	plain := sweepBytes(t, scaleOpts())

	var cold campaign.SweepStats
	coldOpts := scaleOpts()
	coldOpts.CacheDir = dir
	coldOpts.Stats = &cold
	coldBytes := sweepBytes(t, coldOpts)
	cs := cold.View()
	if cs.Executed != 16 || cs.CacheHits != 0 || cs.CacheMisses != 16 {
		t.Fatalf("cold stats = %+v, want 16 executed / 16 misses", cs)
	}
	if string(coldBytes) != string(plain) {
		t.Fatal("cache-enabled sweep output differs from the plain sweep")
	}

	var warm campaign.SweepStats
	warmOpts := scaleOpts()
	warmOpts.CacheDir = dir
	warmOpts.Stats = &warm
	warmBytes := sweepBytes(t, warmOpts)
	ws := warm.View()
	if ws.Executed != 0 || ws.CacheHits != 16 || ws.CacheMisses != 0 || ws.CacheCorrupt != 0 {
		t.Fatalf("warm stats = %+v, want every run served from cache", ws)
	}
	if string(warmBytes) != string(coldBytes) {
		t.Fatal("warm-cache sweep output differs from the cold run")
	}
}

// TestCacheCorruptEntryRecomputed: damaging one cached record costs exactly
// one recomputation — the corrupt record is detected, counted and
// recomputed, and output stays byte-identical. The store named by the
// deprecated CheckpointDir keeps the same rule.
func TestCacheCorruptEntryRecomputed(t *testing.T) {
	for _, row := range []struct {
		name  string
		store func(*campaign.SweepOptions, string)
	}{
		{"CacheDir", func(o *campaign.SweepOptions, dir string) { o.CacheDir = dir }},
		{"CheckpointDir", func(o *campaign.SweepOptions, dir string) { o.CheckpointDir = dir }},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			coldOpts := scaleOpts()
			row.store(&coldOpts, dir)
			coldBytes := sweepBytes(t, coldOpts)

			flipPayloadBit(t, dir)

			var stats campaign.SweepStats
			opts := scaleOpts()
			row.store(&opts, dir)
			opts.Stats = &stats
			got := sweepBytes(t, opts)
			sv := stats.View()
			if sv.CacheCorrupt != 1 || sv.Executed != 1 || sv.CacheHits != 15 {
				t.Fatalf("stats after corruption = %+v, want 1 corrupt / 1 executed / 15 hits", sv)
			}
			if string(got) != string(coldBytes) {
				t.Fatal("output after corruption recovery differs from the cold run")
			}
		})
	}
}

// onlySegment reads the one segment of a result-cache directory that one
// sweep of scaleOpts wrote, requiring it to hold one record per run (16).
func onlySegment(t *testing.T, dir string) (path string, b []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("%s holds segments %v, want one", dir, segs)
	}
	b, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte(`"specHash"`)); n != 16 {
		t.Fatalf("%s holds %d records, want 16", segs[0], n)
	}
	return segs[0], b
}

// flipPayloadBit damages one of the 16 records of a result-cache directory:
// it flips one bit inside the binary run record that is the payload of the
// segment's last record, where only the checksum catches it.
func flipPayloadBit(t *testing.T, dir string) {
	t.Helper()
	seg, b := onlySegment(t, dir)
	// The last record's key, canonical JSON, ends at the first '}' after
	// its "engine" field; its payload follows (10 bytes in is the metric
	// count), and the segment's table after that.
	key := bytes.LastIndex(b, []byte(`"engine":`))
	b[key+bytes.IndexByte(b[key:], '}')+10] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJSONPayloadRecordsMiss: a cache whose records hold the JSON run
// payload written before run records became binary — under the same keys
// — serves none of them and counts none corrupt: every run is a plain
// miss and is recomputed with byte-identical output, and the next sweep
// hits every recomputed record.
func TestJSONPayloadRecordsMiss(t *testing.T) {
	opts := scaleOpts()
	res, err := campaign.Sweep(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The earlier payload: the run's JSON object {"metrics":{...}}.
	type jsonRecord struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	var keys []resultcache.Key
	for _, cell := range res.Cells {
		spec, err := scenario.Get(cell.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := scenario.ResolveProfile(cell.Profile)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := spec.WithProfile(prof).Hash()
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range cell.Result.PerSeed {
			k := resultcache.Key{SpecHash: hash, Profile: cell.Profile, Seed: run.Seed,
				DurationNs: int64(opts.Duration), Engine: version.Engine}
			if err := c.Put(k, jsonRecord{run.Metrics}); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The JSON records sit under the very keys the sweep looks up.
	c, err = resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		var rec jsonRecord
		if hit, err := c.Get(k, &rec); !hit || err != nil {
			t.Fatalf("JSON record of seed %d: Get = (%v, %v), want a hit", k.Seed, hit, err)
		}
	}
	c.Close()

	var first, second campaign.SweepStats
	opts.CacheDir, opts.Stats = dir, &first
	if got := sweepBytes(t, opts); !bytes.Equal(got, plain) {
		t.Fatal("output over JSON-payload records differs from the plain sweep")
	}
	if v := first.View(); v.CacheMisses != 16 || v.CacheCorrupt != 0 || v.Executed != 16 || v.CacheHits != 0 {
		t.Fatalf("first sweep stats = %+v, want 16 misses, 0 corrupt, 16 executed", v)
	}
	opts.Stats = &second
	if got := sweepBytes(t, opts); !bytes.Equal(got, plain) {
		t.Fatal("output from the recomputed records differs from the plain sweep")
	}
	if v := second.View(); v.CacheHits != 16 || v.Executed != 0 || v.CacheCorrupt != 0 {
		t.Fatalf("second sweep stats = %+v, want 16 hits", v)
	}
}

// TestCacheKeyCoversRunShape: changing the simulated duration (or sampling,
// or the early-stop predicate) changes every run key, so a warm cache for
// one shape serves nothing for another, and a sweep over a directory a
// differently-shaped campaign left is exactly a fresh sweep.
func TestCacheKeyCoversRunShape(t *testing.T) {
	dir := t.TempDir()
	coldOpts := scaleOpts()
	coldOpts.CacheDir = dir
	_ = sweepBytes(t, coldOpts)

	longer := scaleOpts()
	longer.Duration = 3 * time.Minute
	fresh := sweepBytes(t, longer)

	var stats campaign.SweepStats
	longer.CacheDir = dir
	longer.Stats = &stats
	got := sweepBytes(t, longer)
	sv := stats.View()
	if sv.CacheHits != 0 || sv.Executed != 16 {
		t.Fatalf("stats for changed duration = %+v, want 0 hits / 16 executed", sv)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("sweep over a differently-shaped cache differs from a fresh sweep")
	}
}

// TestUnnamedEarlyStopRejected: an opaque early-stop func cannot be content
// addressed, so enabling the cache (through CacheDir or the deprecated
// CheckpointDir) without naming it is an error rather than a silently wrong
// key.
func TestUnnamedEarlyStopRejected(t *testing.T) {
	stop, err := campaign.EarlyStopByName("collision")
	if err != nil {
		t.Fatal(err)
	}
	for _, enable := range []func(*campaign.SweepOptions){
		func(o *campaign.SweepOptions) { o.CacheDir = t.TempDir() },
		func(o *campaign.SweepOptions) { o.CheckpointDir = t.TempDir() },
	} {
		opts := scaleOpts()
		opts.EarlyStop = stop // EarlyStopName deliberately empty
		enable(&opts)
		if _, err := campaign.Sweep(context.Background(), opts); err == nil {
			t.Fatal("Sweep accepted an unnamed EarlyStop with caching enabled")
		}
	}
}

// TestCacheResumeInProcess: cancel a cached sweep mid-flight, re-run it,
// and the stored runs are served from the cache instead of recomputed —
// with output byte-identical to an uninterrupted sweep.
func TestCacheResumeInProcess(t *testing.T) {
	plain := sweepBytes(t, scaleOpts())
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	first := scaleOpts()
	first.CacheDir = dir
	first.Parallel = 1
	first.OnRunDone = func() {
		if done.Add(1) == 3 {
			cancel()
		}
	}
	if _, err := campaign.Sweep(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}
	if done.Load() < 3 {
		t.Fatalf("only %d runs completed before cancel", done.Load())
	}

	var stats campaign.SweepStats
	second := scaleOpts()
	second.CacheDir = dir
	second.Stats = &stats
	got := sweepBytes(t, second)
	sv := stats.View()
	if sv.CacheHits < 3 {
		t.Fatalf("resume served %d runs from the cache, want at least the 3 stored ones", sv.CacheHits)
	}
	if sv.CacheHits+sv.Executed != 16 {
		t.Fatalf("stats = %+v: cacheHits+executed != 16", sv)
	}
	if string(got) != string(plain) {
		t.Fatal("resumed sweep output differs from an uninterrupted sweep")
	}

	// A third run replays everything and executes nothing.
	var all campaign.SweepStats
	third := scaleOpts()
	third.CacheDir = dir
	third.Stats = &all
	_ = sweepBytes(t, third)
	if av := all.View(); av.CacheHits != 16 || av.Executed != 0 {
		t.Fatalf("fully-cached rerun stats = %+v, want 16 hits / 0 executed", av)
	}
}

// TestCacheAndCheckpointDirOneStore: with both CacheDir and the deprecated
// CheckpointDir set, only the cache directory is opened: it holds exactly
// one record per run, and the checkpoint directory gets no segment.
func TestCacheAndCheckpointDirOneStore(t *testing.T) {
	cacheDir, ckptDir := t.TempDir(), t.TempDir()
	opts := scaleOpts()
	opts.CacheDir = cacheDir
	opts.CheckpointDir = ckptDir
	if got := sweepBytes(t, opts); !bytes.Equal(got, sweepBytes(t, scaleOpts())) {
		t.Fatal("sweep with both directories set differs from the plain sweep")
	}
	onlySegment(t, cacheDir)
	if segs, _ := filepath.Glob(filepath.Join(ckptDir, "seg-*")); len(segs) != 0 {
		t.Fatalf("checkpoint directory holds segments %v, want none", segs)
	}
}

// TestVersionStamp: sweep and per-cell results carry the engine version,
// and it leads the JSON export.
func TestVersionStamp(t *testing.T) {
	res, err := campaign.Sweep(context.Background(), campaign.SweepOptions{
		Scenarios: []string{"baseline"},
		Profiles:  []string{"unsecured"},
		Seeds:     campaign.SeedRange{Base: 1, Count: 1},
		Duration:  2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if res.Version != version.Engine {
		t.Fatalf("SweepResult.Version = %q, want %q", res.Version, version.Engine)
	}
	for _, c := range res.Cells {
		if c.Result.Version != version.Engine {
			t.Fatalf("cell %s/%s Version = %q, want %q", c.Scenario, c.Profile, c.Result.Version, version.Engine)
		}
	}
	j, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(j), "{\n  \"version\": \""+version.Engine+"\"") {
		t.Fatalf("JSON export does not lead with the version stamp: %.60s", j)
	}
}

// TestMergeValidation: every way a shard set can be wrong is a loud error.
func TestMergeValidation(t *testing.T) {
	shardResult := func(i, n int) *campaign.SweepResult {
		opts := scaleOpts()
		opts.Shard = shard.Sel{Index: i, Count: n}
		res, err := campaign.Sweep(context.Background(), opts)
		if err != nil {
			t.Fatalf("Sweep(%d/%d): %v", i, n, err)
		}
		return res
	}
	s0, s1 := shardResult(0, 2), shardResult(1, 2)

	cases := []struct {
		name string
		in   []*campaign.SweepResult
		want string
	}{
		{"empty", nil, "no shard results"},
		{"missing shard", []*campaign.SweepResult{s0}, "got 1 result(s)"},
		{"duplicate shard", []*campaign.SweepResult{s0, s0}, "appears twice"},
		{"unsharded input", func() []*campaign.SweepResult {
			r := *s0
			r.Shard = nil
			return []*campaign.SweepResult{&r}
		}(), "no shard header"},
		{"version mismatch", func() []*campaign.SweepResult {
			r := *s1
			r.Version = "0.0.0"
			return []*campaign.SweepResult{s0, &r}
		}(), "version mismatch"},
		{"foreign seed", func() []*campaign.SweepResult {
			// Hand shard 1 a deep-copied cell whose first run claims a seed
			// shard 1 does not own (one of shard 0's).
			r := *s1
			r.Cells = append([]campaign.SweepCell(nil), s1.Cells...)
			for ci, c := range r.Cells {
				for _, run := range s0.Cells[ci].Result.PerSeed {
					cr := *c.Result
					cr.PerSeed = append(append([]campaign.SeedRun(nil), c.Result.PerSeed...), run)
					r.Cells[ci] = campaign.SweepCell{Scenario: c.Scenario, Profile: c.Profile, Result: &cr}
					return []*campaign.SweepResult{s0, &r}
				}
			}
			t.Fatal("shard 0 owns no runs to steal")
			return nil
		}(), "owned by shard"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := campaign.MergeSweeps(c.in)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("MergeSweeps = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// --- genuine process-kill resume ---

const (
	helperEnv      = "CAMPAIGN_TEST_HELPER_KILL"
	helperCacheEnv = "CAMPAIGN_TEST_HELPER_CACHE"
	helperExit     = 57
)

// TestHelperKilledShardSweep is not a test: re-executed as a child process
// by TestProcessKillCacheResume, it starts shard 0/2 of the standard
// campaign with a result cache and exits hard (os.Exit, no cleanup) after
// two completed runs — a real mid-campaign crash.
func TestHelperKilledShardSweep(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process for TestProcessKillCacheResume")
	}
	opts := scaleOpts()
	opts.Shard = shard.Sel{Index: 0, Count: 2}
	opts.CacheDir = os.Getenv(helperCacheEnv)
	opts.Parallel = 1
	var done atomic.Int64
	opts.OnRunDone = func() {
		if done.Add(1) == 2 {
			os.Exit(helperExit)
		}
	}
	_, _ = campaign.Sweep(context.Background(), opts)
	// Reaching here means shard 0 owned fewer than 2 runs and the kill never
	// fired; the parent checks the exit code and will fail.
	os.Exit(0)
}

// TestProcessKillCacheResume: kill a sharded, cached campaign between seeds
// in a real child process, resume it from the cache, run the sibling shard,
// merge — and the result is byte-identical to a single uninterrupted sweep,
// with the stored runs demonstrably not recomputed.
func TestProcessKillCacheResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	// The kill fires after 2 completed runs, so shard 0 must own at least 3
	// for the crash to interrupt anything. That is a property of the stable
	// hash over this fixed campaign, so check it explicitly.
	owned := 0
	for _, sc := range []string{"baseline", "gnss-spoof"} {
		for _, pr := range []string{"unsecured", "secured"} {
			for seed := int64(1); seed <= 4; seed++ {
				if shard.Assign(shard.Key{Scenario: sc, Profile: pr, Seed: seed}, 2) == 0 {
					owned++
				}
			}
		}
	}
	if owned < 3 {
		t.Fatalf("shard 0 owns only %d of 16 runs; pick a different fixture", owned)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperKilledShardSweep$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnv+"=1", helperCacheEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != helperExit {
		t.Fatalf("helper process: err=%v (want exit code %d)\noutput:\n%s", err, helperExit, out)
	}

	// Resume shard 0 from the cache the killed process left behind.
	var stats campaign.SweepStats
	resume := scaleOpts()
	resume.Shard = shard.Sel{Index: 0, Count: 2}
	resume.CacheDir = dir
	resume.Stats = &stats
	res0, err := campaign.Sweep(context.Background(), resume)
	if err != nil {
		t.Fatalf("resume shard 0: %v", err)
	}
	sv := stats.View()
	if sv.CacheHits < 2 {
		t.Fatalf("resume served %d runs from the cache, want at least the 2 the killed process stored", sv.CacheHits)
	}
	if sv.CacheHits+sv.Executed != int64(owned) {
		t.Fatalf("resume stats = %+v, want cacheHits+executed == %d", sv, owned)
	}

	other := scaleOpts()
	other.Shard = shard.Sel{Index: 1, Count: 2}
	res1, err := campaign.Sweep(context.Background(), other)
	if err != nil {
		t.Fatalf("shard 1: %v", err)
	}

	merged, err := campaign.MergeSweeps([]*campaign.SweepResult{res0, res1})
	if err != nil {
		t.Fatalf("MergeSweeps: %v", err)
	}
	got, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if single := sweepBytes(t, scaleOpts()); string(got) != string(single) {
		t.Fatal("killed-and-resumed campaign output differs from an uninterrupted sweep")
	}
}
