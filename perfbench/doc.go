// Command perfbench is the end-to-end benchmark of the worksim simulator. It
// measures what users of the simulator see, on four workloads that each put
// most of the work in a different layer, and with -trace 1 it splits the CPU
// time of each workload by layer. BENCHMARK.json at the repository root
// records the workloads, the metrics and their bounds.
//
// # Running it
//
// run.sh builds the benchmark from source and runs it. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload sweep-wide --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 75
//	bash perfbench/run.sh --workload all --seed 1 --seconds 120 --trace 1
//
// -workload takes one name or all. -seed roots every
// input, so the same seed gives the same inputs and the same output digest.
// -seconds is the measurement budget shared by the selected workloads.
// Everything the benchmark builds or writes stays under .bench_build: the Go
// build cache, the binary, scratch directories and, for a traced run,
// trace/<workload>/spans.jsonl and trace/<workload>/cpu-<n>.pprof.
//
// The benchmark is one process. GOMAXPROCS is the Go default, the number of
// CPUs the process may use; sweeps run with Parallel set to it, and the
// daemon client opens no more connections than that.
//
// Each workload runs repetitions of fixed work. A repetition builds fresh
// state and the reference outputs its check needs (timed as setup_s), runs
// its operations (the timed region), then checks the outputs against the
// references and tears down, outside the timed region. Repetitions run until
// the budget is spent and at least three have run; with several workloads
// they run round-robin, one repetition of each in turn, so a noisy spell on a
// shared machine hits every workload. Repetition r derives its inputs from
// the seed and r.
//
// The report ends with one JSON line: correct, attempted and failed
// operations, and the metrics by name with their units. With several
// workloads a metric's name is prefixed with "<workload>/". The benchmark
// exits 1 if any operation or check failed. A failed operation is a sweep
// error, a non-2xx response, a transport error, a run that did not finish
// or a failed correctness check.
//
// # Workloads
//
// sweep-wide: 8 sweeps per repetition of the full catalog (16 scenarios) x 2
// profiles x 1 seed, 10 simulated minutes per run, no cache: 256 runs. Every
// run pays its own commissioning and the per-cell worker pool drains at every
// cell boundary, so about half of two cores is used. This is the workload
// for campaign scheduling and commissioning. Check: operation 0 re-run at
// Parallel 1 gives the same sweep JSON.
//
// sweep-deep: 4 sweeps per repetition of multi-attack x secured x 64 seeds,
// 10 simulated minutes per run, each with a fresh CacheDir and CheckpointDir:
// 256 runs. One commission serves 64 seeds and the pool stays full, so the
// simulation tick (substrate and security layers) does almost all the work;
// cache and journal writes are the write side of the campaign plumbing.
// Check: every run executed fresh, and operation 0 re-run at Parallel 1 gives
// the same sweep JSON.
//
// campaign-warm-cache: 40 sweeps per repetition of the full catalog x 2
// profiles x 8 seeds, 2 simulated minutes per run, every run a hit in a cache
// filled during set-up: 10 240 runs and no ticks. The time goes to the cache
// read path, campaign aggregation, the sweep JSON export and, measured at
// about 70% of it, the commissioning of every cell, which a sweep does before
// it looks in the cache. Check: every run is a verified hit and every sweep's
// JSON equals the cold fill's.
//
// daemon-runs: 500 requests per repetition in an open loop at 100 requests/s
// against the worksimd server on a loopback listener, with one API key and
// rate limiting off. A request submits a run (catalog scenario rotating,
// profile alternating, 2 simulated minutes), follows its SSE event stream to
// the end frame, then fetches the report. Independent users do not wait for
// each other, so the loop is open: its latency counts queueing behind a
// stall. Each submission commissions its run in the handler and streams
// about 270 encoded events. The rate loads two cores to about a quarter:
// other tenants of a shared machine can make it three times slower for
// minutes, and at a higher rate that pushes the server into saturation,
// where latency grows without bound instead of with the machine's speed. Check: every 50th report equals the report of
// the same run made in process through the worksim façade.
//
// # End-to-end metrics
//
// They come from untraced repetitions. Each is the median over the
// repetitions of that repetition's value. A latency percentile is taken over
// the operations of one repetition (500 requests of daemon-runs; 8, 4 and 40
// sweeps of the sweep workloads, where p99 is the slowest sweep), so a stall
// in one repetition does not move it. The bound is how much a metric may worsen, as a share of the parent
// commit's median, before a change counts as a regression.
//
// Times are calibrated. Before each repetition the benchmark times a fixed
// calibration pass that uses no repository code (calibrate.go); the run's
// median pass time over the reference pass time is the machine's slowdown.
// Every time is divided by it, and runs_per_s of a workload the machine
// paces (not the open-loop daemon-runs) is multiplied by it, so a noisy
// neighbour slowing the whole machine does not read as a regression. The
// sweeps slow down almost exactly as much as the pass does; daemon-runs,
// whose time goes partly to key generation and the network stack, slows
// about half as much, so its calibrated times over-correct and spread more.
// The report prints the raw value beside each calibrated one, and the traced
// run reports the pass time as bench.calibration_ms.
//
//	runs_per_s        1/s    simulation runs completed per second of the timed region
//	cpu_ms_per_run    ms     process user+sys CPU (getrusage) per run
//	latency_p50_ms    ms     median operation latency: one sweep, or one daemon
//	                         request timed from when it was due
//	latency_p99_ms    ms     99th percentile of the same
//	allocs_per_run    count  heap allocations per run, whole process
//	alloc_kb_per_run  KiB    bytes allocated per run, whole process
//	live_heap_mb      MiB    heap in use after a GC at the end of a repetition,
//	                         before teardown (the daemon's retained jobs)
//	setup_s           s      time from the start of a repetition to its first
//	                         timed operation: fresh state, cache fill, server
//	                         start and reference outputs
//
// The bounds are in BENCHMARK.json (metrics.go holds the same values, and a
// test keeps the two equal) and are printed in the report. Times get 25%:
// even calibrated, ten runs of sweep-wide on a shared 2-vCPU machine spread
// by up to about a tenth (quartile spread over median), so a tighter bound
// would flag noise as regressions.
//
// # The traced run and the layer table
//
// With -trace 1 the first half of the budget runs untraced repetitions and
// the second half traced ones, then a set of layer probes runs; the report
// holds the per-layer metrics. A traced repetition records spans around the
// calls the benchmark makes (sweep; request with http.submit, http.stream
// and http.fetch; one span per probe) and a CPU profile of its timed region.
// The layer table printed for each workload lists:
//
//   - <layer>.cpu_share: the share of the workload's CPU samples in a layer,
//     by the fold rules in fold.go (commissioning wins over everything it
//     calls; the wire codec, event fan-out and checkpoint journal are split
//     out of their packages; otherwise the innermost repository frame's
//     package; gc, http and unexplained for stacks outside the repository;
//     bench is the load generator; other is a repository package outside the
//     named layers). The shares add up to 1, and the "residue" lines say what
//     fell to other and unexplained.
//   - campaign.core_util: CPU time over wall time x GOMAXPROCS.
//   - Probes, each the median time of a call on real state:
//     commission.batch_ms (commissioning the secured baseline),
//     worksite.step_us (one tick of a warmed secured multi-attack session),
//     resultcache.put_us and resultcache.get_us (a sweep's run record), and
//     tracefmt.marshal_us (one event of a recorded stream).
//   - Counters: resultcache.hit_ratio (hits / lookups) and
//     resultcache.corrupt; serve.events_per_run, serve.refused (submissions
//     turned away) and serve.retained_jobs (runs the daemon still lists at the
//     end of a repetition).
//   - Span self times, medians: serve.submit_ms, serve.stream_ms and
//     serve.fetch_ms.
//   - bench.send_lag_p99_ms: how late the open-loop generator sent.
//   - bench.calibration_ms: the median raw calibration pass time.
//   - bench.trace_overhead: traced over untraced CPU per run, minus 1.
//     It is measured on CPU rather than on runs_per_s because the daemon's
//     rate is fixed by its schedule.
//
// Probe and span times are calibrated like the end-to-end times.
//
// Each layer metric moves an end-to-end metric on some workloads and should
// stay flat on others. Commissioning moves cpu_ms_per_run on sweep-wide and
// latency on daemon-runs, not sweep-deep or campaign-warm-cache; the tick
// layers (worksite, geo, radio, netsim, sensors, fusion, securechan, ids,
// risk, attack) move sweep-deep, not campaign-warm-cache; the result cache
// and skipping commissioning for cached cells move campaign-warm-cache, and
// the cache's write side its set-up; serve, tracefmt and http move
// the daemon's latency and nothing else; campaign scheduling (core_util)
// moves runs_per_s on sweep-wide, not sweep-deep.
//
// # Claiming a performance change
//
// A performance claim names one end-to-end metric on one workload of
// BENCHMARK.json, measured with this benchmark unchanged on the parent
// commit and on the change, and shows no other metric on any workload worse
// than its bound. The layer table shows where the saving came from; it does
// not replace the end-to-end number.
package main
