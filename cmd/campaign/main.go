// Command campaign runs Monte-Carlo scenario campaigns: any subset of the
// registered experiments, fanned out over a seed range with a bounded worker
// pool, with per-metric mean / stddev / 95%-CI aggregation and optional JSON
// export.
//
// Usage:
//
//	campaign -list
//	campaign -experiments e1,e5 -seeds 8 -seed-base 1 -parallel 8
//	campaign -experiments all -seeds 16 -json results.json
//	campaign -sweep -scenarios all -profiles unsecured,secured -seeds 8
//	campaign -sweep -scenarios rf-jamming,harsh-weather -duration 5m
//	campaign -sweep -shard 0/4 -cache cache/ -json shard0.json
//	campaign -merge shard0.json shard1.json shard2.json shard3.json
//	campaign -version
//
// With -sweep the campaign fans the cross-product scenario × profile × seed
// out instead of the registered experiments: -scenarios selects named
// catalog scenarios (worksim.Catalog) and -profiles the defence selections.
//
// Sweeps scale out: -shard i/N runs only the runs shard i owns under the
// stable hash partition (each shard in its own process), and -cache dir
// stores every completed run in a content-addressed result cache and serves
// stored runs from it, so a repeated campaign executes nothing and a killed
// one re-run with the same flags resumes instead of restarting. Shard
// processes may share one -cache dir. -checkpoint dir is a deprecated
// synonym for -cache, ignored when -cache is set.
// -merge combines the shard result files into output byte-identical to the
// single-process sweep. Progress and statistics go to stderr, so `-json -`
// output on stdout pipes straight into -merge. The closing "sweep stats"
// line counts runs simulated fresh (executed), served from the cache
// (cacheHits), cache lookups that found nothing (cacheMisses), and damaged
// records met in the cache, none of them served (cacheCorrupt).
//
// The seed range convention is [seed-base, seed-base+seeds); with a fixed
// seed set the aggregate tables and the JSON export are byte-identical across
// repeated runs regardless of -parallel, -shard, or cache state.
//
// Campaigns are cancellable: SIGINT/SIGTERM drain the worker pool (in-flight
// simulation runs stop at their next control tick) and the command exits
// with the context error.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/worksim"
	"repro/worksim/experiments"
	"repro/worksim/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expList   = flag.String("experiments", "all", "comma-separated experiment IDs, or \"all\"")
		seeds     = flag.Int("seeds", 8, "number of consecutive seeds to run")
		seedBase  = flag.Int64("seed-base", 1, "first seed of the range")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size")
		duration  = flag.Duration("duration", 0, "simulated duration override (0 = experiment default)")
		trials    = flag.Int("trials", 0, "detection trials override (0 = experiment default)")
		scenarios = flag.Int("sotif-scenarios", 0, "explored SOTIF scenarios override (0 = experiment default)")
		jsonPath  = flag.String("json", "", "write the campaign results as JSON to this path (\"-\" = stdout)")
		perSeed   = flag.Bool("per-seed", false, "also print every per-seed table/figure")
		csv       = flag.Bool("csv", false, "emit aggregate tables as CSV")
		list      = flag.Bool("list", false, "list registered experiments and scenarios, then exit")
		sweep     = flag.Bool("sweep", false, "sweep scenario x profile x seed instead of running experiments")
		scenList  = flag.String("scenarios", "all", "comma-separated catalog scenario names for -sweep, or \"all\"")
		profList  = flag.String("profiles", strings.Join(worksim.Profiles(), ","), "comma-separated security profiles for -sweep")
		sample    = flag.Duration("sample", 0, "record a per-seed timeseries point every this much simulated time (-sweep only, 0 = off)")
		earlyStop = flag.String("early-stop", "", "end each -sweep run at the first tick matching this predicate (collision|unsafe|safe-stop|first-alert)")
		shardSel  = flag.String("shard", "", "run only shard i of N of the sweep, as \"i/N\" (-sweep only)")
		cacheDir  = flag.String("cache", "", "store completed runs in a content-addressed result cache rooted here and serve repeated or resumed runs from it; shards may share the dir (-sweep only)")
		ckptDir   = flag.String("checkpoint", "", "deprecated synonym for -cache, ignored when -cache is set (-sweep only)")
		merge     = flag.Bool("merge", false, "merge sharded sweep result files (the positional args) into one sweep result on stdout")
		version   = flag.Bool("version", false, "print the worksim version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("campaign", worksim.Version)
		return nil
	}

	// Flags belong to one mode; reject cross-mode use instead of silently
	// ignoring it (-scenarios in particular used to be the SOTIF count
	// override, now -sotif-scenarios).
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *merge {
		for _, name := range []string{"sweep", "experiments", "trials", "sotif-scenarios", "per-seed",
			"scenarios", "profiles", "sample", "early-stop", "shard", "cache", "checkpoint",
			"seeds", "seed-base", "parallel", "duration", "csv"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -merge", name)
			}
		}
		return runMerge(flag.Args(), *jsonPath)
	}
	if !*sweep {
		for _, name := range []string{"scenarios", "profiles", "sample", "early-stop", "shard", "cache", "checkpoint"} {
			if set[name] {
				hint := ""
				if name == "scenarios" {
					hint = " (the SOTIF count override is -sotif-scenarios)"
				}
				return fmt.Errorf("-%s requires -sweep%s", name, hint)
			}
		}
	} else {
		for _, name := range []string{"experiments", "trials", "sotif-scenarios", "per-seed"} {
			if set[name] {
				return fmt.Errorf("-%s does not apply to -sweep", name)
			}
		}
	}

	if *list {
		st, err := scenarioTable()
		if err != nil {
			return err
		}
		fmt.Print(listTable().Render())
		fmt.Println()
		fmt.Print(st.Render())
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweep {
		return runSweep(ctx, sweepArgs{
			scenList: *scenList, profList: *profList,
			seeds: *seeds, seedBase: *seedBase, parallel: *parallel,
			duration: *duration, sample: *sample, earlyStop: *earlyStop,
			shard: *shardSel, cacheDir: cmp.Or(*cacheDir, *ckptDir),
			jsonPath: *jsonPath, csv: *csv,
		})
	}
	exps, err := experiments.Default.Select(strings.Split(*expList, ","))
	if err != nil {
		return err
	}
	if len(exps) == 0 {
		return fmt.Errorf("no experiments selected")
	}
	opts := experiments.Options{
		Seeds:    experiments.SeedRange{Base: *seedBase, Count: *seeds},
		Parallel: *parallel,
		Params:   experiments.Params{Duration: *duration, Trials: *trials, Scenarios: *scenarios},
	}

	// With -json - the JSON stream owns stdout; table renderings are
	// suppressed so the output stays parseable.
	jsonToStdout := *jsonPath == "-"

	start := time.Now()
	var results []*experiments.Result
	for _, exp := range exps {
		res, err := experiments.Run(ctx, exp, opts)
		if err != nil {
			return err
		}
		results = append(results, res)
		if jsonToStdout {
			continue
		}
		if *perSeed {
			for i, out := range res.Outcomes {
				fmt.Printf("--- %s seed %d ---\n", res.ExperimentID, res.PerSeed[i].Seed)
				for _, t := range out.Tables {
					fmt.Println(t.Render())
				}
				for _, f := range out.Figures {
					fmt.Println(f.Render())
				}
			}
		}
		t := res.Table()
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Render())
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "campaign: %d experiment(s) x %d seed(s), parallel %d, %.2fs wall\n",
		len(results), *seeds, *parallel, time.Since(start).Seconds())

	if *jsonPath != "" {
		return writeJSON(*jsonPath, results)
	}
	return nil
}

type sweepArgs struct {
	scenList, profList string
	seeds              int
	seedBase           int64
	parallel           int
	duration           time.Duration
	sample             time.Duration
	earlyStop          string
	shard              string
	cacheDir           string
	jsonPath           string
	csv                bool
}

func runSweep(ctx context.Context, a sweepArgs) error {
	split := func(s string) []string {
		var out []string
		for _, part := range strings.Split(s, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
		return out
	}
	stop, err := worksim.EarlyStopByName(a.earlyStop)
	if err != nil {
		return err
	}
	var sel worksim.ShardSel
	if a.shard != "" {
		if sel, err = worksim.ParseShard(a.shard); err != nil {
			return err
		}
	}
	var stats worksim.SweepStats
	opts := worksim.SweepOptions{
		Scenarios:     split(a.scenList),
		Profiles:      split(a.profList),
		Seeds:         worksim.SeedRange{Base: a.seedBase, Count: a.seeds},
		Parallel:      a.parallel,
		Duration:      a.duration,
		SampleEvery:   a.sample,
		EarlyStop:     stop,
		EarlyStopName: a.earlyStop,
		Shard:         sel,
		CacheDir:      a.cacheDir,
		Stats:         &stats,
	}
	start := time.Now()
	res, err := worksim.Sweep(ctx, opts)
	if err != nil {
		return err
	}
	jsonToStdout := a.jsonPath == "-"
	if !jsonToStdout {
		t := res.Table()
		if a.csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Print(t.Render())
		}
	}
	// Progress and statistics go to stderr only, so `-json -` keeps stdout
	// parseable (and pipeable into -merge).
	fmt.Fprintf(os.Stderr, "campaign: sweep of %d cell(s) x %d seed(s), parallel %d, %.2fs wall\n",
		len(res.Cells), a.seeds, a.parallel, time.Since(start).Seconds())
	sv := stats.View()
	fmt.Fprintf(os.Stderr, "campaign: sweep stats: executed=%d cacheHits=%d cacheMisses=%d cacheCorrupt=%d\n",
		sv.Executed, sv.CacheHits, sv.CacheMisses, sv.CacheCorrupt)
	if a.jsonPath != "" {
		j, err := res.JSON()
		if err != nil {
			return err
		}
		if jsonToStdout {
			_, err = os.Stdout.Write(append(j, '\n'))
			return err
		}
		return os.WriteFile(a.jsonPath, append(j, '\n'), 0o644)
	}
	return nil
}

// runMerge combines sharded sweep result files into the single result an
// unsharded sweep would have produced. Output goes to stdout (or -json
// path); it is byte-identical to the single-process sweep's -json export.
func runMerge(paths []string, jsonPath string) error {
	if len(paths) < 1 {
		return fmt.Errorf("-merge needs at least one shard result file argument")
	}
	blobs := make([][]byte, 0, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		blobs = append(blobs, b)
	}
	merged, out, err := worksim.MergeSweepJSON(blobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign: merged %d shard(s): %d cell(s), %s\n",
		len(paths), len(merged.Cells), merged.Seeds)
	if jsonPath != "" && jsonPath != "-" {
		return os.WriteFile(jsonPath, append(out, '\n'), 0o644)
	}
	_, err = os.Stdout.Write(append(out, '\n'))
	return err
}

func listTable() *report.Table {
	t := report.NewTable("registered experiments", "id", "section", "description")
	for _, e := range experiments.Default.All() {
		t.AddRow(e.ID, e.Section, e.Description)
	}
	return t
}

func scenarioTable() (*report.Table, error) {
	t := report.NewTable("scenario catalog (for -sweep / worksite-sim -scenario)", "name", "description")
	for _, name := range worksim.Catalog() {
		s, err := worksim.Lookup(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, s.Description)
	}
	return t, nil
}

func writeJSON(path string, results []*experiments.Result) error {
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range results {
		j, err := r.JSON()
		if err != nil {
			return err
		}
		b.Write(j)
		if i < len(results)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("]\n")
	if path == "-" {
		_, err := os.Stdout.WriteString(b.String())
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
