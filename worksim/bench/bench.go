// Package bench is the tracked benchmark harness of the simulator: a fixed
// catalog of named micro and macro benchmarks over the public worksim façade,
// runnable both from `go test -bench` (bench_test.go wraps the catalog) and
// from the cmd/bench tool, which persists results as BENCH_<date>.json so the
// performance trajectory of the hot path is diffable PR over PR.
//
// The catalog deliberately spans the altitude ladder of the simulation:
//
//   - tick-baseline / tick-secured: one steady-state control tick — the
//     innermost hot loop (sensing, fusion, safety, radio, events).
//   - e1-run / e1-run-secured: one full 10-minute E1 baseline run including
//     commissioning — the unit of every experiment and sweep.
//   - sweep-32seed / sweep-32seed-batched: a 32-seed sweep run serially on
//     one core, plain and from one batched commission. perfbench's
//     sweep-deep workload measures the parallel sweep end to end.
//   - trace-marshal-tick: one tick snapshot encoded as a trace line, the
//     per-event cost of the -trace files and the daemon's event stream.
//
// Benchmark names are stable identifiers: renaming one breaks the ability to
// diff against older BENCH files, so add new names instead of reusing them.
package bench

import (
	"context"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/event"
	"repro/worksim/trace"
)

// tickHorizon bounds the steady-state tick benchmarks. It only needs to
// exceed b.N ticks at the default 500 ms tick period; a benchmark stepping
// past it would report false and fail loudly.
const tickHorizon = 10000 * time.Hour

// Benchmark is one named entry of the tracked catalog.
type Benchmark struct {
	// Name is the stable identifier used in BENCH files and sub-benchmark
	// names.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Fn runs the benchmark.
	Fn func(b *testing.B)
}

// Catalog returns the tracked benchmarks in presentation order: the macro
// ladder first, then the secured-path micro-benchmarks (secured.go).
func Catalog() []Benchmark {
	macro := []Benchmark{
		{
			Name: "tick-baseline",
			Doc:  "one steady-state control tick, E1 baseline (unsecured, drone on)",
			Fn:   func(b *testing.B) { benchTick(b, false) },
		},
		{
			Name: "tick-secured",
			Doc:  "one steady-state control tick under the full defence stack",
			Fn:   func(b *testing.B) { benchTick(b, true) },
		},
		{
			Name: "e1-run",
			Doc:  "full 10-minute E1 baseline run including commissioning (unsecured)",
			Fn:   func(b *testing.B) { benchRun(b, false) },
		},
		{
			Name: "e1-run-secured",
			Doc:  "full 10-minute E1 baseline run including commissioning (secured)",
			Fn:   func(b *testing.B) { benchRun(b, true) },
		},
		{
			Name: "sweep-32seed",
			Doc:  "32-seed baseline sweep (2 min/run), run serially on one worker",
			Fn:   benchSweep32,
		},
		{
			Name: "sweep-32seed-batched",
			Doc:  "32 secured-baseline seeds (2 min/run) forked from one OpenBatch shared commission, run serially",
			Fn:   benchSweep32Batched,
		},
		{
			Name: "trace-marshal-tick",
			Doc:  "encode one steady-state tick snapshot as a trace line (trace.Marshal)",
			Fn:   benchTraceMarshalTick,
		},
	}
	return append(macro, securedCatalog()...)
}

// Lookup returns the catalog entry with the given name.
func Lookup(name string) (Benchmark, bool) {
	for _, bm := range Catalog() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}

// warmSession opens the E1 baseline and steps it one minute past
// commissioning transients, returning the session and its latest tick.
func warmSession(b *testing.B, secured bool) (*worksim.Session, event.Tick) {
	b.Helper()
	opts := []worksim.Option{worksim.WithSeed(42), worksim.WithHorizon(tickHorizon)}
	if secured {
		opts = append(opts, worksim.WithProfile(worksim.Secured()))
	}
	s, err := worksim.Open(worksim.Baseline(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	var tick event.Tick
	for i := 0; i < 120; i++ { // one minute of warm-up ticks
		var ok bool
		if tick, ok = s.Step(); !ok {
			b.Fatal("session ended during warm-up")
		}
	}
	return s, tick
}

// benchTick measures one steady-state control tick: a session is opened and
// warmed past commissioning transients, then each iteration advances exactly
// one tick.
func benchTick(b *testing.B, secured bool) {
	s, _ := warmSession(b, secured)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Step(); !ok {
			b.Fatal("session ended mid-benchmark")
		}
	}
}

// benchRun measures the unit of every experiment: commission the E1 baseline
// and run it for 10 simulated minutes.
func benchRun(b *testing.B, secured bool) {
	opts := []worksim.Option{worksim.WithSeed(42), worksim.WithHorizon(10 * time.Minute)}
	if secured {
		opts = append(opts, worksim.WithProfile(worksim.Secured()))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := worksim.Open(worksim.Baseline(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Duration != 10*time.Minute {
			b.Fatalf("run covered %v, want 10m", rep.Duration)
		}
	}
}

// benchSweep32 measures a 32-seed sweep of the baseline scenario, 2
// simulated minutes each. Parallel is pinned to 1 (0 would mean one worker
// per GOMAXPROCS), so this is a serial, single-core number comparable
// across machines and with the committed records.
func benchSweep32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := worksim.Sweep(context.Background(), worksim.SweepOptions{
			Scenarios: []string{"baseline"},
			Profiles:  []string{"unsecured"},
			Seeds:     worksim.SeedRange{Base: 1, Count: 32},
			Parallel:  1,
			Duration:  2 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 1 || len(res.Cells[0].Result.PerSeed) != 32 {
			b.Fatal("sweep shape drifted")
		}
	}
}

// benchSweep32Batched measures the batched fan-out under the full defence
// stack: one shared commission (PKI keygen, issuance, handshakes) forked
// into 32 per-seed secured sessions of 2 simulated minutes each, which
// Batch.Run runs one after another.
func benchSweep32Batched(b *testing.B) {
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch, err := worksim.OpenBatch(worksim.Baseline(), seeds,
			worksim.WithHorizon(2*time.Minute),
			worksim.WithProfile(worksim.Secured()),
		)
		if err != nil {
			b.Fatal(err)
		}
		reports, err := batch.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != 32 {
			b.Fatalf("batch produced %d reports, want 32", len(reports))
		}
	}
}

// benchTraceMarshalTick measures the per-event cost of the trace encoding:
// one tick snapshot, taken from a session warmed past commissioning, encoded
// as the JSON line the -trace files and the daemon's event stream carry.
func benchTraceMarshalTick(b *testing.B) {
	_, tick := warmSession(b, false)
	var e event.Event = tick
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Marshal(e); err != nil {
			b.Fatal(err)
		}
	}
}
