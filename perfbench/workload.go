package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// A workload is one set of inputs the benchmark runs. Each repetition of a
// workload first builds fresh state and the reference outputs its check
// compares against (timed as setup_s), then runs a fixed amount of work (the
// timed region), then checks its outputs and tears the state down, both
// outside the timed region.
type workload struct {
	name string
	// why records, in one line, the layer the workload stresses and why
	// the benchmark has it.
	why string
	// openLoop marks a workload whose operations are sent on a schedule,
	// so its rate is set by the schedule rather than by the machine.
	openLoop bool
	// prepare builds one repetition's fresh state and reference outputs.
	prepare func(rc *repContext) (*repetition, error)
}

// repContext is what a repetition is built from.
type repContext struct {
	// seed roots every input of the repetition; it is derived from the
	// benchmark's -seed and the repetition index.
	seed int64
	// dir is an empty scratch directory the repetition owns.
	dir string
	sz  sizes
}

// repetition is one prepared repetition of a workload.
type repetition struct {
	// run is the timed region. It reports every operation to rec.
	run func(rec *recorder) error
	// check verifies the outputs after the timed region. A failed check
	// counts as a failed operation.
	check func(rec *recorder) error
	// teardown, when set, releases the repetition's state.
	teardown func()
}

// sizes fixes the work of one repetition of each workload.
type sizes struct {
	wideOps      int           // sweep-wide: catalog sweeps per repetition
	deepOps      int           // sweep-deep: sweeps per repetition
	deepSeeds    int           // sweep-deep: seeds per sweep
	warmOps      int           // campaign-warm-cache: warm sweeps per repetition
	warmSeeds    int           // campaign-warm-cache: seeds per cell
	requests     int           // daemon-runs: requests per repetition
	rate         float64       // daemon-runs: open-loop send rate, requests/s
	checkEvery   int           // daemon-runs: every n-th report is re-run in process
	horizon      time.Duration // simulated time of a sweep-wide or sweep-deep run
	shortHorizon time.Duration // simulated time of a warm-cache or daemon run
}

// fullSizes are the sizes the benchmark measures with.
var fullSizes = sizes{
	wideOps: 8, deepOps: 4, deepSeeds: 64, warmOps: 40, warmSeeds: 8,
	requests: 500, rate: 100, checkEvery: 50,
	horizon: 10 * time.Minute, shortHorizon: 2 * time.Minute,
}

// recorder collects what the operations of one repetition report. Its
// methods are safe for concurrent use.
type recorder struct {
	tr *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	runs      int
	latencies []float64 // per operation, ms
	sendLag   []float64 // per open-loop send, ms
	digests   map[int][sha256.Size]byte
	counters  map[string]float64
	errs      []string
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, digests: make(map[int][sha256.Size]byte), counters: make(map[string]float64)}
}

// op records operation i: the simulation runs it completed, its latency,
// and its output bytes (nil for none) or its error.
func (r *recorder) op(i, runs int, latency time.Duration, out []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		r.noteLocked(fmt.Sprintf("op %d: %v", i, err))
		return
	}
	r.runs += runs
	r.latencies = append(r.latencies, ms(latency))
	if out != nil {
		r.digests[i] = sha256.Sum256(out)
	}
}

// fail records a failure outside any operation, such as a failed check.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.noteLocked(err.Error())
}

func (r *recorder) noteLocked(msg string) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// count adds v to the named per-layer counter.
func (r *recorder) count(name string, v float64) {
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	r.sendLag = append(r.sendLag, ms(d))
	r.mu.Unlock()
}

// digest returns operation i's output digest.
func (r *recorder) digest(i int) ([sha256.Size]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.digests[i]
	return d, ok
}

// outputDigest hashes every operation's output digest in operation order.
func (r *recorder) outputDigest() [sha256.Size]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := sha256.New()
	for i := 0; i < r.attempted; i++ {
		d := r.digests[i]
		h.Write(d[:])
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// repStats is the measurement of one repetition.
type repStats struct {
	setup      time.Duration
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
	rec        *recorder
	profile    []byte // CPU profile of the timed region (traced only)
	digest     [sha256.Size]byte
}

// runRepetition prepares, times, checks and tears down one repetition. With
// a tracer it also records spans and a CPU profile of the timed region. An
// error means the repetition could not be set up or measured at all.
func runRepetition(w *workload, rc *repContext, tr *tracer) (*repStats, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.dir)

	t0 := clock()
	rep, err := w.prepare(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	st := &repStats{setup: clock() - t0, rec: newRecorder(tr)}
	if rep.teardown != nil {
		defer rep.teardown()
	}

	// Start every timed region from a collected heap, so garbage left by
	// set-up is not charged to it.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", w.name, err)
		}
	}
	cpu0, wall0 := cpuTime(), clock()
	runErr := rep.run(st.rec)
	st.wall, st.cpu = clock()-wall0, cpuTime()-cpu0
	if tr != nil {
		pprof.StopCPUProfile()
		st.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	// Live heap is what the repetition still holds once it is done and
	// before it tears down: the daemon's retained jobs, for instance. The
	// second collection empties the sync.Pool caches the first one only
	// demotes, so pooled buffers do not count.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st.liveHeap = m1.HeapAlloc

	if runErr != nil {
		st.rec.fail(runErr)
	} else if err := rep.check(st.rec); err != nil {
		st.rec.fail(fmt.Errorf("check: %w", err))
	}
	st.digest = st.rec.outputDigest()
	return st, nil
}

// repSeed derives the root seed of repetition rep from the benchmark seed.
// Operations add offsets below 1000 to it, so no two repetitions or
// operations share inputs.
func repSeed(seed int64, rep int) int64 { return seed*1_000_000 + int64(rep)*1_000 }
