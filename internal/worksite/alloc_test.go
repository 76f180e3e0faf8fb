package worksite

import (
	"testing"
)

const (
	warmTicks    = 240 // two simulated minutes: buffers reach high water
	measureTicks = 50
	scoutTicks   = warmTicks + 4000
)

// scout runs cfg for scoutTicks control ticks and returns every tick's
// snapshot, index i holding tick i. The run is deterministic, so a fresh
// session replays exactly these ticks.
func scout(t *testing.T, cfg Config) []TickSnapshot {
	t.Helper()
	se, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make([]TickSnapshot, scoutTicks+1)
	for i := 1; i <= scoutTicks; i++ {
		tick, ok := se.Step()
		if !ok {
			t.Fatalf("scout session ended at tick %d", i)
		}
		ticks[i] = tick
	}
	return ticks
}

// quietExceptMission reports whether nothing but the mission phase changed
// from tick i-1 to tick i: no mode, safety, stop or alert transition.
func quietExceptMission(ticks []TickSnapshot, i int) bool {
	tick, prev := ticks[i], ticks[i-1]
	return i > 1 &&
		tick.Mode == prev.Mode &&
		tick.Unsafe == prev.Unsafe &&
		tick.Colliding == prev.Colliding &&
		tick.Stopped == prev.Stopped &&
		tick.Alerts == prev.Alerts
}

// findSpan returns the first tick s ≥ warmTicks such that every tick of
// [s, s+2*measureTicks+2) passes ok and window(s) holds, or fails the test.
// The span holds two windows of measureTicks — AllocsPerRun's warm-up call
// and the measured call — and one tick of padding on each side, so a
// transition adjacent to the span cannot bleed into it.
func findSpan(t *testing.T, ok func(i int) bool, window func(s int) bool) int {
	t.Helper()
	const span = 2*measureTicks + 2
	for s := warmTicks; s+span <= scoutTicks; s++ {
		all := window(s)
		for i := s; all && i < s+span; i++ {
			all = ok(i)
		}
		if all {
			return s
		}
	}
	t.Fatalf("no suitable span of %d ticks found in %d scouted ticks", span, scoutTicks)
	return 0
}

// measureWindow replays cfg on a fresh session up to tick start, lets
// AllocsPerRun's warm-up call step ticks start..start+measureTicks-1, and
// returns the exact heap allocations of the next measureTicks ticks.
func measureWindow(t *testing.T, cfg Config, start int) float64 {
	t.Helper()
	se, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < start; i++ {
		if _, ok := se.Step(); !ok {
			t.Fatalf("session ended at tick %d", i)
		}
	}
	// AllocsPerRun truncates its mean to an integer, so the whole window is
	// one run and the count is exact.
	return testing.AllocsPerRun(1, func() {
		for i := 0; i < measureTicks; i++ {
			if _, ok := se.Step(); !ok {
				t.Fatal("session ended mid-measurement")
			}
		}
	})
}

// assertZeroAllocTicks locks the tick loop for cfg at zero heap allocations
// per steady-state control tick, so an allocation regression fails `go test`
// rather than waiting for someone to read a benchmark.
//
// "Steady state" excludes ticks with discrete transitions: mission, safety
// and mode transitions append to the operational timeline, which grows now
// and then, and safety, mode and alert transitions build detail strings.
// Those are event-driven, bounded per run, and deliberately out of scope —
// the invariant is that the per-tick work (worker movement, drone orbit +
// detection downlink over the radio, sensing, fusion, protective fields,
// navigation, scoring, event fan-out, and under the secured profile the
// record layer, IDS suite and live risk register) allocates nothing. The
// helper therefore scouts the deterministic run for a window of
// transition-free ticks and measures there. Mission phase changes, which
// replan the route, have their own test: TestReplanTicksZeroAllocs.
func assertZeroAllocTicks(t *testing.T, cfg Config) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	ticks := scout(t, cfg)
	start := findSpan(t, func(i int) bool {
		return quietExceptMission(ticks, i) && ticks[i].Mission == ticks[i-1].Mission
	}, func(int) bool { return true })
	if n := measureWindow(t, cfg, start); n != 0 {
		t.Fatalf("steady-state control ticks allocate: %v allocs over ticks %d..%d, want 0",
			n, start+measureTicks, start+2*measureTicks-1)
	}
}

// TestTickLoopZeroAllocs locks the unsecured E1 baseline tick at zero heap
// allocations per steady-state tick.
func TestTickLoopZeroAllocs(t *testing.T) {
	assertZeroAllocTicks(t, DefaultConfig(42)) // the E1 baseline: unsecured, drone on
}

// TestSecuredTickZeroAllocs locks the full secured profile — record-layer
// crypto on every message, the IDS detector suite on every packet, the 1Hz
// live risk register — at the same zero-allocation bar as the baseline.
func TestSecuredTickZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Profile = Secured()
	assertZeroAllocTicks(t, cfg)
}

// TestReplanTicksZeroAllocs measures a window that holds a mission phase
// change which replans the route (to the landing or back to the harvest
// site), under both profiles. The planner searches on pooled scratch and
// writes the route into the site's own route buffer, so a replan allocates
// nothing unless its route is longer than every route before it.
func TestReplanTicksZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	secured := DefaultConfig(42)
	secured.Profile = Secured()
	for name, cfg := range map[string]Config{"unsecured": DefaultConfig(42), "secured": secured} {
		t.Run(name, func(t *testing.T) {
			ticks := scout(t, cfg)
			replans := func(i int) bool {
				m := ticks[i].Mission
				return m != ticks[i-1].Mission &&
					(m == phaseToLanding.String() || m == phaseToHarvest.String())
			}
			start := findSpan(t, func(i int) bool { return quietExceptMission(ticks, i) },
				func(s int) bool {
					for i := s + measureTicks; i < s+2*measureTicks; i++ {
						if replans(i) {
							return true
						}
					}
					return false
				})
			if n := measureWindow(t, cfg, start); n != 0 {
				t.Fatalf("replanning control ticks allocate: %v allocs over ticks %d..%d, want 0",
					n, start+measureTicks, start+2*measureTicks-1)
			}
		})
	}
}
