package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads returns every workload, in report order.
func workloads() []*workload {
	return []*workload{sweepWide(), sweepDeep(), warmCache(), daemonRuns()}
}

// config is one invocation of the benchmark.
type config struct {
	seed    int64
	budget  time.Duration
	traced  bool
	dir     string // scratch and trace output root
	sz      sizes
	minReps int // untraced repetitions every workload runs at least
}

// result is everything measured for one workload.
type result struct {
	w        *workload
	untraced []*repStats
	traced   []*repStats
	tr       *tracer
}

// reps returns every repetition, untraced first.
func (r *result) reps() []*repStats {
	return append(append([]*repStats(nil), r.untraced...), r.traced...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: one name, or all")
		seed    = flag.Int64("seed", 1, "seed every input derives from")
		seconds = flag.Int("seconds", 25, "measurement budget in seconds, shared by the selected workloads")
		traced  = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for scratch state and trace output")
	)
	flag.Usage = usage
	flag.Parse()
	ws, err := selectWorkloads(*name)
	if err == nil && (*traced != 0 && *traced != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := config{
		seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		dir: *dir, sz: fullSizes, minReps: 3,
	}
	ok, err := run(os.Stdout, ws, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: perfbench -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-dir DIR]

Run it through run.sh from the repository root, which builds it first:

	bash perfbench/run.sh --workload sweep-wide --seed 1 --seconds 25 --trace 0
	bash perfbench/run.sh --workload all --seed 1 --seconds 75
	bash perfbench/run.sh --workload all --seed 1 --seconds 120 --trace 1

Workloads:
`)
	for _, w := range workloads() {
		fmt.Fprintf(os.Stderr, "  %-20s %s\n", w.name, w.why)
	}
	fmt.Fprintln(os.Stderr, "\nFlags:")
	flag.PrintDefaults()
}

// selectWorkloads resolves the -workload flag: one name, or all.
func selectWorkloads(name string) ([]*workload, error) {
	all := workloads()
	if name == "all" {
		return all, nil
	}
	var names []string
	for _, w := range all {
		if w.name == name {
			return []*workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(names, ", "))
}

// run measures the workloads, prints the report to out and reports whether
// every operation and check succeeded. The report's last line is one JSON
// object: correct, attempted, failed and the metrics by name with units.
func run(out io.Writer, ws []*workload, cfg config) (bool, error) {
	scratch, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("scratch-%d", os.Getpid())))
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)
	results, calib, err := measure(ws, cfg, scratch)
	if err != nil {
		return false, err
	}
	calibration := median(calib)
	slowdown := calibration / ms(calibrationRef)
	var probed map[string]float64
	if cfg.traced {
		probeTracer := &tracer{}
		if probed, err = runProbes(filepath.Join(scratch, "probes"), cfg.seed, probeTracer); err != nil {
			return false, err
		}
		if err := probeTracer.write(filepath.Join(cfg.dir, "trace", "probes.spans.jsonl")); err != nil {
			return false, err
		}
	}

	fmt.Fprintf(out, "perfbench  seed %d  GOMAXPROCS %d  %s  calibration %.2f ms (reference %v): times divided by %.4f\n",
		cfg.seed, runtime.GOMAXPROCS(0), runtime.Version(), calibration, calibrationRef, slowdown)
	metrics := make(map[string]any)
	attempted, failed := 0, 0
	for _, res := range results {
		e2e := endToEnd(res.w, res.untraced, slowdown)
		values, defs := e2e, endToEndMetrics
		var layers foldResult
		if cfg.traced {
			var profiles [][]byte
			for _, st := range res.traced {
				profiles = append(profiles, st.profile)
			}
			if layers, err = fold(profiles); err != nil {
				return false, fmt.Errorf("%s: %w", res.w.name, err)
			}
			values, defs = perLayer(res, layers, probed, calibration, slowdown), perLayerMetrics
			if err := writeTrace(filepath.Join(cfg.dir, "trace", res.w.name), res); err != nil {
				return false, err
			}
		}
		a, f, errs := outcome(res)
		attempted += a
		failed += f
		printWorkload(out, res, cfg, e2e, endToEnd(res.w, res.untraced, 1), a, f, errs)
		if cfg.traced {
			printLayers(out, layers, values)
		}
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				return false, fmt.Errorf("%s: metric %s was not computed", res.w.name, d.Name)
			}
			key := d.Name
			if len(results) > 1 {
				key = res.w.name + "/" + d.Name
			}
			metrics[key] = map[string]any{"value": v, "unit": d.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return failed == 0, nil
}

// measure runs the repetitions: untraced rounds until the untraced budget
// is spent and every workload has minReps, then, for a traced run, traced
// rounds until the whole budget is spent and every workload has one. A
// round runs one repetition of each workload in turn, so a noisy spell on a
// shared machine hits every workload. measure returns the results and the
// calibration pass times taken before every repetition.
func measure(ws []*workload, cfg config, scratch string) ([]*result, []float64, error) {
	results := make([]*result, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w, tr: &tracer{}}
	}
	start := clock()
	untracedEnd := start + cfg.budget
	if cfg.traced {
		untracedEnd = start + cfg.budget/2
	}
	round := 0
	var calib []float64
	phase := func(traced bool, minRounds int, end time.Duration) error {
		// A round starts only if at least half of it fits in the budget, so
		// a run overshoots its budget by half a round on average.
		var roundTime time.Duration
		for n := 0; n < minRounds || clock()+roundTime/2 < end; n++ {
			roundStart := clock()
			for _, res := range results {
				rc := &repContext{seed: repSeed(cfg.seed, round), sz: cfg.sz,
					dir: filepath.Join(scratch, fmt.Sprintf("%s-%d", res.w.name, round))}
				var tr *tracer
				if traced {
					tr = res.tr
				}
				calib = append(calib, calibrate()...)
				st, err := runRepetition(res.w, rc, tr)
				if err != nil {
					return err
				}
				if traced {
					res.traced = append(res.traced, st)
				} else {
					res.untraced = append(res.untraced, st)
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s rep %d (traced %t): setup %.3fs, %d runs in %.2fs, %d failed\n",
					res.w.name, round, traced, st.setup.Seconds(), st.rec.runs, st.wall.Seconds(), st.rec.failed)
			}
			round++
			roundTime = clock() - roundStart
		}
		return nil
	}
	if err := phase(false, cfg.minReps, untracedEnd); err != nil {
		return nil, nil, err
	}
	if cfg.traced {
		if err := phase(true, 1, start+cfg.budget); err != nil {
			return nil, nil, err
		}
	}
	return results, calib, nil
}

// outcome totals a workload's attempted and failed operations and collects
// its first error messages.
func outcome(res *result) (attempted, failed int, errs []string) {
	for _, st := range res.reps() {
		attempted += st.rec.attempted
		failed += st.rec.failed
		errs = append(errs, st.rec.errs...)
	}
	return attempted, failed, errs
}

// digest combines the output digests of the first minReps untraced
// repetitions, whose inputs depend only on the seed, so two runs of the same
// code and seed print the same digest.
func digest(res *result, minReps int) string {
	n := min(len(res.untraced), minReps)
	h := sha256.New()
	for _, st := range res.untraced[:n] {
		h.Write(st.digest[:])
	}
	return fmt.Sprintf("%x (%d reps)", h.Sum(nil), n)
}

// printWorkload prints a workload's end-to-end metrics, calibrated and raw.
func printWorkload(out io.Writer, res *result, cfg config, e2e, raw map[string]float64, attempted, failed int, errs []string) {
	fmt.Fprintf(out, "\n%s: %d untraced + %d traced repetitions, %d ops, %d failed\n",
		res.w.name, len(res.untraced), len(res.traced), attempted, failed)
	fmt.Fprintf(out, "  why: %s\n", res.w.why)
	fmt.Fprintf(out, "  output digest: %s\n", digest(res, cfg.minReps))
	for _, e := range errs {
		fmt.Fprintf(out, "  error: %s\n", e)
	}
	fmt.Fprintf(out, "  %-18s %14s %14s  %-6s %s\n", "metric", "calibrated", "raw", "unit", "bound")
	for _, d := range endToEndMetrics {
		fmt.Fprintf(out, "  %-18s %14.4f %14.4f  %-6s %.0f%%\n", d.Name, e2e[d.Name], raw[d.Name], d.Unit, d.Bound*100)
	}
}

// printLayers prints the layer table: every per-layer metric, with the CPU
// shares sorted largest first, then what fell to other and unexplained.
func printLayers(out io.Writer, layers foldResult, values map[string]float64) {
	fmt.Fprintf(out, "  layer table (%d CPU samples):\n", layers.samples)
	defs := append([]metricDef(nil), perLayerMetrics...)
	sort.SliceStable(defs, func(i, j int) bool {
		si, sj := strings.HasSuffix(defs[i].Name, ".cpu_share"), strings.HasSuffix(defs[j].Name, ".cpu_share")
		if si != sj {
			return si
		}
		return si && values[defs[i].Name] > values[defs[j].Name]
	})
	for _, d := range defs {
		fmt.Fprintf(out, "    %-28s %12.4f %s\n", d.Name, values[d.Name], d.Unit)
	}
	keys := make([]string, 0, len(layers.residue))
	for k := range layers.residue {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := layers.residue[keys[i]], layers.residue[keys[j]]
		if ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	for i, k := range keys {
		if i == 8 {
			break
		}
		fmt.Fprintf(out, "    residue %-60s %6.4f\n", k, ratio(float64(layers.residue[k]), float64(layers.samples)))
	}
}

// writeTrace stores a workload's spans and CPU profiles under dir.
func writeTrace(dir string, res *result) error {
	if err := res.tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	var errs []error
	for i, st := range res.traced {
		errs = append(errs, os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i)), st.profile, 0o644))
	}
	return errors.Join(errs...)
}
