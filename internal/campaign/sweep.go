package campaign

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/version"
	"repro/internal/worksite"
)

// SweepOptions configures a scenario sweep: the cross-product of named
// catalog scenarios × security profiles × seeds.
type SweepOptions struct {
	// Scenarios are catalog names. Empty (or the single element "all")
	// selects the whole catalog.
	Scenarios []string
	// Profiles are named defence selections (scenario.Profiles). Empty
	// selects every named profile — the paper's unsecured-vs-secured axis.
	Profiles []string
	// Seeds is the seed range each cell fans out over.
	Seeds SeedRange
	// Parallel bounds the one worker pool over the whole cube: 0 means
	// runtime.GOMAXPROCS(0), and the pool is never wider than the run count.
	Parallel int
	// Duration is the simulated duration per run (0 = 10 minutes).
	Duration time.Duration
	// SampleEvery, when positive, records a downsampled per-seed timeseries
	// in every SeedRun: one TimePoint per SampleEvery of simulated time.
	// Sampling is a passive observer; it never changes run outcomes.
	SampleEvery time.Duration
	// EarlyStop, when non-nil, ends each run at the first control tick for
	// which it returns true (the run's report then covers the shortened
	// window and SeedRun.StoppedAt records the cut). Predicates must be
	// pure functions of the snapshot so runs stay deterministic; with
	// EarlyStop nil, sweep output is byte-identical to a sweep without
	// session instrumentation, across any Parallel width.
	EarlyStop func(worksite.TickSnapshot) bool
	// EarlyStopName names the EarlyStop predicate (EarlyStopByName) so it
	// can participate in the result cache's run key. Required when EarlyStop
	// is non-nil and the cache is enabled: an opaque func has no content
	// address, so an unnamed predicate cannot be cached.
	EarlyStopName string
	// Shard, when enabled (Count > 1), restricts the sweep to the runs the
	// selected shard owns under the stable hash partition of internal/shard,
	// so the cube can run as independent processes. Every cell still appears
	// in the result (shard outputs carry the full cell order); cells whose
	// runs all hash elsewhere have empty per-seed slices. MergeSweeps
	// recombines a complete shard set into bytes identical to an unsharded
	// sweep.
	Shard shard.Sel
	// CacheDir, when non-empty, enables the content-addressed result cache
	// rooted there: every completed run is stored keyed on (canonical spec
	// hash, profile, seed, duration, sampling, early-stop name, engine
	// version), and runs whose key already has a verified record are served
	// from disk instead of recomputed. The sweep reads the index table of
	// each segment file in the directory when it starts, appends the runs
	// it computes to a segment of its own, and closes the store — writing
	// that segment's table — when it returns.
	//
	// The cache is also what resumes a killed campaign: every run is
	// appended as it completes, before it is reported done, so a re-run
	// with identical options serves what the killed one stored and computes
	// only the rest; a run cut off mid-append is simply computed again. A
	// run whose key differs (another duration, engine or spec) misses, and
	// every sweep writes its own segment, so sharded processes and
	// unrelated campaigns may share one directory.
	CacheDir string
	// CheckpointDir roots the result cache when CacheDir is empty; it is
	// ignored when CacheDir is set.
	//
	// Deprecated: set CacheDir, which resumes a killed campaign the same
	// way.
	CheckpointDir string
	// OnRunDone, when non-nil, is invoked once after every completed
	// (scenario, profile, seed) run, whether simulated or served from the
	// cache. It is called from pool worker goroutines and must be safe for
	// concurrent use; it observes progress only and must not influence
	// results. A consumer that only counts progress reads Stats instead.
	OnRunDone func()
	// Stats, when non-nil, receives the sweep's live execution counters:
	// how many runs were simulated fresh and how many were served from the
	// cache. Counters are never part of the sweep's JSON export, so a
	// warm-cache re-run stays byte-identical to its cold run.
	Stats *SweepStats
}

// SweepStats counts how a sweep's runs were satisfied. All counters are
// atomically updated by pool workers; read a consistent snapshot with View.
type SweepStats struct {
	executed     atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	cacheCorrupt atomic.Int64
}

// SweepStatsView is a point-in-time snapshot of SweepStats.
type SweepStatsView struct {
	// Executed counts runs simulated fresh in this process.
	Executed int64 `json:"executed"`
	// CacheHits / CacheMisses are the result-cache counters: verified
	// records served, and lookups that found nothing. CacheCorrupt counts
	// damaged records met in the cache; none is served, and a run that
	// needed one is recomputed.
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheCorrupt int64 `json:"cacheCorrupt"`
	// Resumed is always 0: the runs a killed campaign stored are served
	// from the result cache and count as CacheHits.
	//
	// Deprecated: read CacheHits.
	Resumed int64 `json:"resumed"`
}

// View snapshots the counters.
func (s *SweepStats) View() SweepStatsView {
	return SweepStatsView{
		Executed:     s.executed.Load(),
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMisses.Load(),
		CacheCorrupt: s.cacheCorrupt.Load(),
	}
}

// TimePoint is one downsampled sample of a run's per-tick timeseries — the
// raw material for time-resolved figures (attack windows vs nav error,
// productivity ramps, alert bursts).
type TimePoint struct {
	At             time.Duration `json:"atNs"`
	Mission        string        `json:"mission"`
	Mode           string        `json:"mode"`
	NavErrM        float64       `json:"navErrM"`
	MinWorkerDistM float64       `json:"minWorkerDistM"`
	Stopped        bool          `json:"stopped"`
	LogsDelivered  int           `json:"logsDelivered"`
	Collisions     int           `json:"collisions"`
	UnsafeEpisodes int           `json:"unsafeEpisodes"`
	Alerts         int           `json:"alerts"`
}

// SampleObserver returns the downsampling observer behind per-run
// timeseries: the first tick at or past each multiple of every becomes one
// TimePoint appended to *into. Both the sweep's SampleEvery path and the
// worksim façade's WithSampleInterval option install this same observer, so
// the two surfaces can never drift on sampling policy or recorded fields.
func SampleObserver(every time.Duration, into *[]TimePoint) worksite.Observer {
	next := every
	return &worksite.ObserverFuncs{Tick: func(t worksite.TickSnapshot) {
		if t.At < next {
			return
		}
		for next <= t.At {
			next += every
		}
		*into = append(*into, TimePoint{
			At:             t.At,
			Mission:        t.Mission,
			Mode:           t.Mode,
			NavErrM:        t.NavErrM,
			MinWorkerDistM: t.MinWorkerDistM,
			Stopped:        t.Stopped,
			LogsDelivered:  t.LogsDelivered,
			Collisions:     t.Collisions,
			UnsafeEpisodes: t.UnsafeEpisodes,
			Alerts:         t.Alerts,
		})
	}}
}

// EarlyStopByName resolves a named early-stop predicate — the CLI surface
// of SweepOptions.EarlyStop. Callers that also cache should record the
// name in SweepOptions.EarlyStopName so the predicate enters the run key.
func EarlyStopByName(name string) (func(worksite.TickSnapshot) bool, error) {
	switch name {
	case "":
		return nil, nil
	case "collision":
		return func(t worksite.TickSnapshot) bool { return t.Colliding }, nil
	case "unsafe":
		return func(t worksite.TickSnapshot) bool { return t.Unsafe }, nil
	case "safe-stop":
		return func(t worksite.TickSnapshot) bool { return t.Mode == "safe-stop" }, nil
	case "first-alert":
		return func(t worksite.TickSnapshot) bool { return t.Alerts > 0 }, nil
	default:
		return nil, fmt.Errorf("campaign: unknown early-stop predicate %q (known: collision, unsafe, safe-stop, first-alert)", name)
	}
}

// DefaultSweepDuration is the per-run simulated duration when none is given.
const DefaultSweepDuration = 10 * time.Minute

// SweepCell is one (scenario, profile) cell with its per-seed runs and
// aggregates.
type SweepCell struct {
	Scenario string  `json:"scenario"`
	Profile  string  `json:"profile"`
	Result   *Result `json:"result"`
}

// ShardInfo records which slice of the cube a sharded sweep result covers.
type ShardInfo struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// SweepResult is the outcome of a full scenario × profile × seed sweep.
// Cells are ordered scenario-major in the requested order, so rendering and
// JSON export are deterministic. Version heads the export: every sweep
// artifact names the engine version that produced it.
type SweepResult struct {
	Version  string        `json:"version"`
	Duration time.Duration `json:"durationNs"`
	Seeds    SeedRange     `json:"seeds"`
	// Shard is set on the output of a sharded sweep and stripped by
	// MergeSweeps, so merged output is byte-identical to an unsharded sweep.
	Shard *ShardInfo  `json:"shard,omitempty"`
	Cells []SweepCell `json:"cells"`
}

// Sweep fans the scenario × profile × seed cross-product out as one queue
// of (cell, seed) runs over one bounded pool, then aggregates each cell's
// runs in seed order, so per-cell output is byte-reproducible regardless of
// Parallel. Every scenario and profile is resolved before any run starts.
//
// With Shard enabled only the owned slice of the cube executes; with
// CacheDir set completed runs are stored in (and served from) the
// content-addressed result cache, so a repeated or killed campaign serves
// the runs it already stored. Neither changes a single byte of the result
// for the runs it covers — only where the bytes come from.
//
// The context cancels the sweep end to end: the pool stops claiming runs,
// in-flight simulation runs stop between control ticks, and Sweep returns
// ctx.Err() once the pool has drained. A context that never fires yields
// byte-identical output to an uncancellable sweep. Otherwise the first
// failed run in cube order fails the sweep.
func Sweep(ctx context.Context, opts SweepOptions) (*SweepResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	names := opts.Scenarios
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		names = scenario.List()
	}
	profiles := opts.Profiles
	if len(profiles) == 0 {
		profiles = scenario.Profiles()
	}
	d := opts.Duration
	if d <= 0 {
		d = DefaultSweepDuration
	}
	seeds := opts.Seeds.Seeds()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sweep: empty seed range")
	}
	if err := opts.Shard.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	env := &sweepEnv{opts: opts, stats: opts.Stats}
	if env.stats == nil {
		env.stats = &SweepStats{}
	}
	if dir := cmp.Or(opts.CacheDir, opts.CheckpointDir); dir != "" {
		if opts.EarlyStop != nil && opts.EarlyStopName == "" {
			return nil, fmt.Errorf("sweep: the result cache requires EarlyStopName when an EarlyStop predicate is set (an opaque func has no content address)")
		}
		c, err := resultcache.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		// A Close that fails leaves the segment without its table, which
		// the next Open repairs by compacting it.
		defer c.Close()
		env.cache = c
		// Fold the store's own counters into the sweep stats once the sweep
		// ends, however it ends.
		defer func() {
			st := c.Stats()
			env.stats.cacheMisses.Store(st.Misses)
			env.stats.cacheCorrupt.Store(st.Corrupt)
		}()
	}

	res := &SweepResult{Version: version.Engine, Duration: d, Seeds: opts.Seeds}
	if opts.Shard.Enabled() {
		res.Shard = &ShardInfo{Index: opts.Shard.Index, Count: opts.Shard.Count}
	}
	// One commissioner for the whole sweep, shared by every cell's batch:
	// the first run that simulates commissions the bundle for its drone
	// setting, later runs fork it (scenario.Batch's byte-identity contract),
	// cached runs never commission, and no security state outlives the call.
	comm := &worksite.Commissioner{}
	// The work queue lists every owned run cell-major, then in seed order,
	// so results assemble by index into each cell's seed order.
	type run struct {
		cell *cellRef
		res  *Result
		seed int64
	}
	var runs []run
	for _, name := range names {
		spec, err := scenario.Get(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for _, profName := range profiles {
			prof, err := scenario.ResolveProfile(profName)
			if err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			cell := cellRef{scenario: name, profile: profName, spec: spec.WithProfile(prof)}
			if env.cache != nil {
				if cell.specHash, err = cell.spec.Hash(); err != nil {
					return nil, fmt.Errorf("sweep %s/%s: %w", name, profName, err)
				}
			}
			if cell.batch, err = scenario.NewBatchWith(cell.spec, comm); err != nil {
				return nil, fmt.Errorf("sweep %s/%s: %w", name, profName, err)
			}
			cr := &Result{
				Version:      version.Engine,
				ExperimentID: name + "/" + profName,
				Section:      "sweep",
				Description:  spec.Description,
				Params:       Params{Duration: d},
				Seeds:        opts.Seeds,
			}
			res.Cells = append(res.Cells, SweepCell{Scenario: name, Profile: profName, Result: cr})
			for _, seed := range seeds {
				if opts.Shard.Owns(shard.Key{Scenario: name, Profile: profName, Seed: seed}) {
					runs = append(runs, run{cell: &cell, res: cr, seed: seed})
				}
			}
		}
	}

	outs, failed, err := forEach(ctx, opts.Parallel, len(runs), func(i int) (Outcome, error) {
		return env.runCell(ctx, *runs[i].cell, Params{Seed: runs[i].seed, Duration: d})
	})
	if cerr := ctx.Err(); cerr != nil {
		// Partial results are dropped: a cancelled sweep can never be
		// mistaken for a completed one.
		return nil, fmt.Errorf("sweep: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep %s seed %d: %w", runs[failed].res.ExperimentID, runs[failed].seed, err)
	}
	for i, r := range runs {
		r.res.add(r.seed, outs[i])
	}
	// A cell whose runs all hash to other shards keeps a nil PerSeed and
	// empty aggregates, so every shard reports every cell.
	for _, c := range res.Cells {
		c.Result.Aggregates = aggregate(c.Result.PerSeed)
	}
	return res, nil
}

// sweepEnv carries the per-sweep run store into the pool workers: the
// result cache, nil when no directory is set.
type sweepEnv struct {
	opts  SweepOptions
	stats *SweepStats
	cache *resultcache.Cache
}

// cellRef names one (scenario, profile) cell with its compiled spec, the
// cell's batch over the sweep's commissioner, and — when the result cache
// is open — the spec's canonical hash, computed once per cell.
type cellRef struct {
	scenario string
	profile  string
	spec     scenario.Spec
	specHash string
	batch    *scenario.Batch
}

// runCell satisfies one (scenario, profile, seed) run: from the result
// cache when it holds the run, else by a fresh simulation whose result is
// stored before progress is reported, so a kill immediately after a run
// completes never loses it.
func (e *sweepEnv) runCell(ctx context.Context, cell cellRef, p Params) (Outcome, error) {
	var key resultcache.Key
	if e.cache != nil {
		key = resultcache.Key{
			SpecHash:   cell.specHash,
			Profile:    cell.profile,
			Seed:       p.Seed,
			DurationNs: int64(p.Duration),
			SampleNs:   int64(e.opts.SampleEvery),
			EarlyStop:  e.opts.EarlyStopName,
			Engine:     version.Engine,
		}
		out, hit, err := lookup(e.cache, key)
		if err != nil {
			return Outcome{}, err
		}
		if hit {
			e.stats.cacheHits.Add(1)
			e.done()
			return out, nil
		}
	}

	out, err := e.execute(ctx, cell, p)
	if err != nil {
		return Outcome{}, err
	}
	if e.cache != nil {
		if err := e.cache.PutBytes(key, appendRunRecord(nil, out)); err != nil {
			return Outcome{}, err
		}
	}
	e.stats.executed.Add(1)
	e.done()
	return out, nil
}

// lookup reads the run record stored under key.
func lookup(store *resultcache.Cache, key resultcache.Key) (out Outcome, hit bool, err error) {
	hit, err = store.GetBytes(key, func(payload []byte) (err error) {
		out, err = decodeRunRecord(payload)
		return err
	})
	return out, hit, err
}

func (e *sweepEnv) done() {
	if e.opts.OnRunDone != nil {
		e.opts.OnRunDone()
	}
}

// slabPool recycles the random-stream slabs of finished sweep runs.
var slabPool = sync.Pool{New: func() any { return new(rng.Slab) }}

// execute runs one (scenario, profile, seed) simulation: build the session,
// subscribe the sampler when sampling is on, and run it to the horizon or
// the early-stop tick. A nil EarlyStop runs straight to the horizon, the
// same bytes as an uninstrumented run. The session's streams come from a
// pooled slab, which goes back only after the outcome has been read.
func (e *sweepEnv) execute(ctx context.Context, cell cellRef, p Params) (Outcome, error) {
	slab := slabPool.Get().(*rng.Slab)
	defer func() {
		slab.Reset()
		slabPool.Put(slab)
	}()
	sess, _, err := cell.batch.BuildOn(slab, p.Seed, p.Duration)
	if err != nil {
		return Outcome{}, err
	}
	var series []TimePoint
	if e.opts.SampleEvery > 0 {
		sess.Subscribe(SampleObserver(e.opts.SampleEvery, &series))
	}
	stopped, err := sess.RunUntil(ctx, e.opts.EarlyStop)
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{Metrics: SweepMetrics(sess.Report()), Timeseries: series}
	if stopped {
		out.StoppedAt = sess.Now()
	}
	return out, nil
}

// SweepMetrics flattens a worksite report into the sweep's per-seed metric
// record. Scenario and profile are cell axes, so keys carry no prefix.
func SweepMetrics(rep worksite.Report) map[string]float64 {
	m := rep.Metrics
	out := map[string]float64{
		"logs":              float64(m.LogsDelivered),
		"distance_m":        m.DistanceM,
		"safety_stops":      float64(m.SafetyStops),
		"unsafe_episodes":   float64(m.UnsafeEpisodes),
		"collisions":        float64(m.Collisions),
		"min_worker_dist_m": m.MinWorkerDistM,
		"nav_err_max_m":     m.NavErrMaxM,
		"send_failures":     float64(m.SendFailures),
		"replays_blocked":   float64(m.ReplaysBlocked),
		"forgeries_blocked": float64(m.ForgeriesBlocked),
		"cmds_applied":      float64(m.CommandsApplied),
		"channel_hops":      float64(m.ChannelHops),
		"tracks_confirmed":  float64(m.TracksConfirmed),
		"false_alarms":      float64(m.FalseAlarms),
	}
	// An integer sum is exact in any map order; it converts once.
	alerts := 0
	for _, n := range rep.Alerts {
		alerts += n
	}
	out["alerts_total"] = float64(alerts)
	return out
}

// summaryMetrics are the columns of the sweep summary table, in order.
var summaryMetrics = []string{
	"logs", "unsafe_episodes", "collisions", "nav_err_max_m",
	"forgeries_blocked", "replays_blocked", "alerts_total",
}

// Table renders the sweep as one summary table: a row per cell with the
// per-metric means across seeds.
func (r *SweepResult) Table() *report.Table {
	cols := append([]string{"scenario", "profile"}, summaryMetrics...)
	t := report.NewTable(
		fmt.Sprintf("scenario sweep: %d cell(s), %s, %v simulated (per-metric means)",
			len(r.Cells), r.Seeds, r.Duration),
		cols...)
	for _, c := range r.Cells {
		means := make(map[string]float64, len(c.Result.Aggregates))
		for _, a := range c.Result.Aggregates {
			means[a.Metric] = a.Mean
		}
		row := []any{c.Scenario, c.Profile}
		for _, k := range summaryMetrics {
			row = append(row, means[k])
		}
		t.AddRow(row...)
	}
	return t
}

// JSON renders the sweep as indented JSON: the bytes
// json.MarshalIndent(r, "", "  ") returns, written by the append encoder
// (*Result).JSON shares (exportJSON), which falls back to MarshalIndent for
// a string it does not cover. Like the single-experiment export, it
// contains no wall-clock data, so a fixed seed set produces byte-identical
// bytes regardless of Parallel.
func (r *SweepResult) JSON() ([]byte, error) {
	return exportJSON(r, sweepSize(r), func(w *jsonWriter) { w.sweep(r) })
}
