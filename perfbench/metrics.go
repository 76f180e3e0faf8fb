package main

import (
	"runtime"
	"time"
)

// metricDef defines one reported metric. Bound is the share of the parent
// commit's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are what a user of the simulator sees. They come from
// untraced repetitions only, and every one applies to every workload.
var endToEndMetrics = []metricDef{
	{"runs_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_run", "ms", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"allocs_per_run", "count", "lower", 0.10},
	{"alloc_kb_per_run", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics split the work by layer. They come from the traced run:
// a CPU-profile fold, spans around the calls the benchmark makes, layer
// probes and the counters the workloads keep.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{{"campaign.core_util", "share", "higher", 0}}
	for _, l := range namedLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "share", "lower", 0})
	}
	for _, p := range probes {
		unit := "us"
		if p.unit == time.Millisecond {
			unit = "ms"
		}
		defs = append(defs, metricDef{p.metric, unit, "lower", 0})
	}
	return append(defs,
		metricDef{"resultcache.hit_ratio", "ratio", "higher", 0},
		metricDef{"resultcache.corrupt", "count", "lower", 0},
		metricDef{"serve.submit_ms", "ms", "lower", 0},
		metricDef{"serve.stream_ms", "ms", "lower", 0},
		metricDef{"serve.fetch_ms", "ms", "lower", 0},
		metricDef{"serve.events_per_run", "count", "lower", 0},
		metricDef{"serve.refused", "count", "lower", 0},
		metricDef{"serve.retained_jobs", "count", "lower", 0},
		metricDef{"bench.send_lag_p99_ms", "ms", "lower", 0},
		metricDef{"bench.calibration_ms", "ms", "lower", 0},
		metricDef{"bench.trace_overhead", "ratio", "lower", 0},
	)
}()

// endToEnd computes the end-to-end metrics of a workload's repetitions, each
// the median over the repetitions of that repetition's value; a latency
// percentile is taken over the operations of one repetition, so one stalled
// repetition cannot move it. Times are divided by slowdown, the
// machine's calibrated slowness against the reference machine, and the run
// rate of a workload the machine paces is multiplied by it.
func endToEnd(w *workload, reps []*repStats, slowdown float64) map[string]float64 {
	var rps, cpu, allocs, kb, heap, setup, p50, p99 []float64
	for _, st := range reps {
		runs := float64(st.rec.runs)
		rps = append(rps, ratio(runs, st.wall.Seconds()))
		cpu = append(cpu, ratio(ms(st.cpu), runs))
		allocs = append(allocs, ratio(float64(st.mallocs), runs))
		kb = append(kb, ratio(float64(st.allocBytes)/1024, runs))
		heap = append(heap, float64(st.liveHeap)/(1<<20))
		setup = append(setup, st.setup.Seconds())
		p50 = append(p50, quantile(st.rec.latencies, 0.50))
		p99 = append(p99, quantile(st.rec.latencies, 0.99))
	}
	rate := median(rps)
	if !w.openLoop {
		rate *= slowdown
	}
	return map[string]float64{
		"runs_per_s":       rate,
		"cpu_ms_per_run":   median(cpu) / slowdown,
		"latency_p50_ms":   median(p50) / slowdown,
		"latency_p99_ms":   median(p99) / slowdown,
		"allocs_per_run":   median(allocs),
		"alloc_kb_per_run": median(kb),
		"live_heap_mb":     median(heap),
		"setup_s":          median(setup) / slowdown,
	}
}

// perLayer computes the per-layer metrics of a workload from the fold of its
// traced repetitions' profiles, its counters and spans, and the set's probe
// results. Probe and span times are divided by slowdown, like end-to-end
// times; calibration is the median raw calibration pass time.
func perLayer(res *result, layers foldResult, probed map[string]float64, calibration, slowdown float64) map[string]float64 {
	out := make(map[string]float64)
	for l, s := range layers.shares {
		out[l+".cpu_share"] = s
	}
	for k, v := range probed {
		out[k] = v / slowdown
	}

	all := res.reps()
	sum := func(counter string) float64 {
		var n float64
		for _, st := range all {
			n += st.rec.counters[counter]
		}
		return n
	}
	var util, retained, lags []float64
	for _, st := range res.untraced {
		util = append(util, ratio(st.cpu.Seconds(), st.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	}
	var runs float64
	for _, st := range all {
		retained = append(retained, st.rec.counters["serve_retained_jobs"])
		lags = append(lags, st.rec.sendLag...)
		runs += float64(st.rec.runs)
	}
	out["campaign.core_util"] = median(util)
	out["resultcache.hit_ratio"] = ratio(sum("cache_hits"), sum("cache_lookups"))
	out["resultcache.corrupt"] = sum("cache_corrupt")
	out["serve.submit_ms"] = median(res.tr.selfTimes("http.submit")) / slowdown
	out["serve.stream_ms"] = median(res.tr.selfTimes("http.stream")) / slowdown
	out["serve.fetch_ms"] = median(res.tr.selfTimes("http.fetch")) / slowdown
	out["serve.events_per_run"] = ratio(sum("serve_events"), runs)
	out["serve.refused"] = sum("serve_refused")
	out["serve.retained_jobs"] = median(retained)
	out["bench.send_lag_p99_ms"] = quantile(lags, 0.99)
	out["bench.calibration_ms"] = calibration
	out["bench.trace_overhead"] = ratio(endToEnd(res.w, res.traced, 1)["cpu_ms_per_run"], endToEnd(res.w, res.untraced, 1)["cpu_ms_per_run"]) - 1
	return out
}
