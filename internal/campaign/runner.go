package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/report"
	"repro/internal/version"
)

// SeedRange is the campaign seed convention: Count consecutive seeds starting
// at Base (Base, Base+1, ..., Base+Count-1).
type SeedRange struct {
	Base  int64 `json:"base"`
	Count int   `json:"count"`
}

// Seeds expands the range; a Count of zero or less expands to nil.
func (s SeedRange) Seeds() []int64 {
	if s.Count <= 0 {
		return nil
	}
	out := make([]int64, 0, s.Count)
	for i := 0; i < s.Count; i++ {
		out = append(out, s.Base+int64(i))
	}
	return out
}

func (s SeedRange) String() string {
	if s.Count == 1 {
		return fmt.Sprintf("seed %d", s.Base)
	}
	return fmt.Sprintf("seeds %d..%d", s.Base, s.Base+int64(s.Count)-1)
}

// Options configures a campaign over one experiment.
type Options struct {
	// Seeds is the seed range to fan out over.
	Seeds SeedRange
	// Parallel bounds the worker pool: 0 means runtime.GOMAXPROCS(0), and
	// the pool is never wider than the number of seeds.
	Parallel int
	// Params is the per-run parameter template; Seed is overridden per seed
	// and zero fields are filled from the experiment defaults.
	Params Params
}

// SeedRun is the per-seed record of a campaign.
type SeedRun struct {
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
	// Timeseries is the downsampled per-tick series when the producing
	// experiment sampled one (sweeps with SampleEvery set).
	Timeseries []TimePoint `json:"timeseries,omitempty"`
	// StoppedAt is the virtual time an early-stop predicate ended this run,
	// 0 when it ran to the full duration.
	StoppedAt time.Duration `json:"stoppedAtNs,omitempty"`
}

// Aggregate summarises one metric across all seeds of a campaign. CI95Lo/Hi
// use the normal approximation mean ± 1.96·s/√n with the sample standard
// deviation s; with a single seed the interval collapses to the mean.
type Aggregate struct {
	Metric string  `json:"metric"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CI95Lo float64 `json:"ci95Lo"`
	CI95Hi float64 `json:"ci95Hi"`
}

// Result is the outcome of one experiment campaigned over a seed range.
// Version heads the record: every exported result names the engine version
// that produced it, so archived artifacts and cache entries stay traceable.
type Result struct {
	Version      string      `json:"version"`
	ExperimentID string      `json:"experimentId"`
	Section      string      `json:"section,omitempty"`
	Description  string      `json:"description,omitempty"`
	Params       Params      `json:"params"`
	Seeds        SeedRange   `json:"seeds"`
	PerSeed      []SeedRun   `json:"perSeed"`
	Aggregates   []Aggregate `json:"aggregates"`

	// Outcomes holds the full per-seed artifacts (tables/figures), ordered
	// like PerSeed. Excluded from JSON: the JSON export is the metric record.
	Outcomes []Outcome `json:"-"`
}

// Run fans exp out over the seed range with a bounded worker pool and
// aggregates the per-seed metrics. The per-seed result order is the seed
// order regardless of scheduling, so output is independent of Parallel.
//
// The context cancels the campaign: workers stop claiming seeds once it
// fires, in-flight runs receive it through exp.Run (simulation-backed
// experiments stop between control ticks), and after the pool drains Run
// returns ctx.Err(). A context that never fires yields byte-identical
// results to an uncancellable run.
func Run(ctx context.Context, exp Experiment, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seeds := opts.Seeds.Seeds()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("campaign %s: empty seed range", exp.ID)
	}
	if exp.SeedIndependent {
		// One run tells the whole story; n=1 in the aggregate is honest.
		seeds = seeds[:1]
		opts.Seeds = SeedRange{Base: seeds[0], Count: 1}
	}
	params := opts.Params.WithDefaults(exp.Defaults)

	outs, failed, err := forEach(ctx, opts.Parallel, len(seeds), func(i int) (Outcome, error) {
		p := params
		p.Seed = seeds[i]
		return exp.Run(ctx, p)
	})
	if cerr := ctx.Err(); cerr != nil {
		// The pool has drained; partial per-seed results are discarded so a
		// cancelled campaign can never be mistaken for a completed one.
		return nil, fmt.Errorf("campaign %s: %w", exp.ID, cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign %s seed %d: %w", exp.ID, seeds[failed], err)
	}

	res := &Result{
		Version:      version.Engine,
		ExperimentID: exp.ID,
		Section:      exp.Section,
		Description:  exp.Description,
		Params:       params,
		Seeds:        opts.Seeds,
	}
	for i, out := range outs {
		res.add(seeds[i], out)
	}
	res.Aggregates = aggregate(res.PerSeed)
	return res, nil
}

// add appends one seed's outcome to the per-seed record.
func (r *Result) add(seed int64, out Outcome) {
	r.PerSeed = append(r.PerSeed, SeedRun{Seed: seed, Metrics: out.Metrics, Timeseries: out.Timeseries, StoppedAt: out.StoppedAt})
	r.Outcomes = append(r.Outcomes, out)
}

// forEach runs fn(i) for every i in [0, n) on the one bounded pool behind
// Run and Sweep, storing outcomes by index. workers < 1 means
// runtime.GOMAXPROCS(0), and the pool is never wider than n. Workers stop
// claiming once ctx fires, so callers check ctx.Err() afterwards. A panic
// in fn fails that item only. failed is the lowest failed index, err its
// error; (-1, nil) when every claimed item succeeded.
func forEach(ctx context.Context, workers, n int, fn func(i int) (Outcome, error)) (outs []Outcome, failed int, err error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	outs = make([]Outcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//worksim:tickloop
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				outs[i], errs[i] = callItem(fn, i)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return outs, i, err
		}
	}
	return outs, -1, nil
}

// callItem runs fn(i), turning a panic into that item's error so one
// faulty run cannot take down the process and every run beside it.
func callItem(fn func(i int) (Outcome, error), i int) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(i)
}

// aggregate computes per-metric summaries over the union of metric keys,
// sorted by metric name for deterministic output.
func aggregate(runs []SeedRun) []Aggregate {
	byMetric := make(map[string][]float64)
	for _, r := range runs {
		for k, v := range r.Metrics {
			byMetric[k] = append(byMetric[k], v)
		}
	}
	names := make([]string, 0, len(byMetric))
	for k := range byMetric {
		names = append(names, k)
	}
	sort.Strings(names)

	out := make([]Aggregate, 0, len(names))
	for _, name := range names {
		vs := byMetric[name]
		a := Aggregate{Metric: name, N: len(vs), Min: math.Inf(1), Max: math.Inf(-1)}
		var sum float64
		for _, v := range vs {
			sum += v
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
		}
		a.Mean = sum / float64(len(vs))
		if len(vs) > 1 {
			var ss float64
			for _, v := range vs {
				d := v - a.Mean
				ss += d * d
			}
			a.Stddev = math.Sqrt(ss / float64(len(vs)-1))
		}
		half := 1.96 * a.Stddev / math.Sqrt(float64(len(vs)))
		a.CI95Lo = a.Mean - half
		a.CI95Hi = a.Mean + half
		out = append(out, a)
	}
	return out
}

// Table renders the aggregate summary as a report.Table.
func (r *Result) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("campaign %s (%s): %s, n=%d",
			r.ExperimentID, r.Section, r.Seeds, r.Seeds.Count),
		"metric", "n", "mean", "stddev", "min", "max", "ci95_lo", "ci95_hi")
	for _, a := range r.Aggregates {
		t.AddRow(a.Metric, a.N, a.Mean, a.Stddev, a.Min, a.Max, a.CI95Lo, a.CI95Hi)
	}
	return t
}

// JSON renders the result as indented JSON: the bytes
// json.MarshalIndent(r, "", "  ") returns, written without reflection by
// the append encoder the sweep export shares (exportJSON), which falls back
// to MarshalIndent for a string it does not cover. Map keys are sorted, and
// no wall-clock data is included, so the export is byte-reproducible for a
// fixed seed set.
func (r *Result) JSON() ([]byte, error) {
	return exportJSON(r, resultSize(r), func(w *jsonWriter) { w.result(r) })
}

// RunAll campaigns each experiment in turn over the same seed range. The
// per-experiment fan-out is parallel; experiments run sequentially so their
// summary tables stream in a stable order. A fired context aborts between
// (and inside) experiments with ctx.Err().
func RunAll(ctx context.Context, exps []Experiment, opts Options) ([]*Result, error) {
	out := make([]*Result, 0, len(exps))
	for _, e := range exps {
		res, err := Run(ctx, e, opts)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
