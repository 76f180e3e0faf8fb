package worksite

import (
	"testing"
)

// assertZeroAllocTicks locks the tick loop for cfg at zero heap allocations
// per steady-state control tick, so an allocation regression fails `go test`
// rather than waiting for someone to read a benchmark.
//
// "Steady state" excludes ticks with discrete transitions: mission phase
// changes replan the route (A* allocates its search state), safety/mode
// transitions append to the operational timeline, and alert transitions
// build their detail strings. Those are event-driven, bounded per run, and
// deliberately out of scope — the invariant is that the per-tick work
// (worker movement, drone orbit + detection downlink over the radio, sensing,
// fusion, protective fields, navigation, scoring, event fan-out, and under
// the secured profile the record layer, IDS suite and live risk register)
// allocates nothing. The helper therefore scouts the deterministic run for a
// window of transition-free ticks and measures there.
func assertZeroAllocTicks(t *testing.T, cfg Config) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	const (
		warmTicks    = 240 // two simulated minutes: buffers reach high water
		measureTicks = 50
	)

	// Scout pass: the run is deterministic, so a first session tells us
	// which ticks carry transitions. A tick is "quiet" when nothing about
	// the mission/safety/mode state changed from the previous tick.
	scout, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const scoutTicks = warmTicks + 4000
	quiet := make([]bool, scoutTicks+1)
	var prev TickSnapshot
	for i := 1; i <= scoutTicks; i++ {
		tick, ok := scout.Step()
		if !ok {
			t.Fatalf("scout session ended at tick %d", i)
		}
		quiet[i] = i > 1 &&
			tick.Mission == prev.Mission &&
			tick.Mode == prev.Mode &&
			tick.Unsafe == prev.Unsafe &&
			tick.Colliding == prev.Colliding &&
			tick.Stopped == prev.Stopped &&
			tick.Alerts == prev.Alerts
		prev = tick
	}

	// Find the first fully quiet span after warm-up. It holds two windows of
	// measureTicks — AllocsPerRun's warm-up call and the measured call — and
	// we pad one tick on each side so a transition adjacent to the span
	// cannot bleed into it.
	const span = 2*measureTicks + 2
	start := -1
	for s := warmTicks; s+span <= scoutTicks; s++ {
		ok := true
		for i := s; i < s+span; i++ {
			if !quiet[i] {
				ok = false
				break
			}
		}
		if ok {
			start = s
			break
		}
	}
	if start < 0 {
		t.Fatalf("no transition-free span of %d ticks found in %d scouted ticks", span, scoutTicks)
	}

	// Measurement pass on a fresh, byte-identical session.
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
	n := testing.AllocsPerRun(1, func() {
		for i := 0; i < measureTicks; i++ {
			if _, ok := se.Step(); !ok {
				t.Fatal("session ended mid-measurement")
			}
		}
	})
	if n != 0 {
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
