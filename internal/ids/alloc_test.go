package ids

import (
	"testing"
	"time"
)

// TestDetectZeroAllocs locks the full default detector suite at zero heap
// allocations per steady-state tick of benign telemetry, mirroring the
// worksite tick-loop lock. The event mix covers every detector's hot path —
// link EWMA updates, GNSS streak tracking, the de-auth sliding window — while
// staying below every alert threshold, because alert construction is a
// discrete transition and deliberately out of scope.
func TestDetectZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	engine := DefaultEngine()
	const (
		period = 500 * time.Millisecond
		ticks  = 200
	)
	tickNo := 0
	window := func() {
		for i := 0; i < ticks; i++ {
			at := time.Duration(tickNo) * period
			tickNo++
			engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "harvester-1", OK: true, Value: 1})
			engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "forwarder-1", OK: true, Value: 1})
			engine.Ingest(Event{Kind: EventGNSSVerdict, At: at, Source: "harvester-1", OK: true})
			// One de-auth every six ticks (3s) keeps at most four events inside
			// the 10s flood window — exercising the window trim without reaching
			// the five-event alert threshold.
			if tickNo%6 == 0 {
				engine.Ingest(Event{Kind: EventDeauth, At: at, Source: "ap-1", OK: true})
			}
		}
	}

	// AllocsPerRun truncates its mean to an integer, so the whole window is
	// one run and the count is exact. Its warm-up call runs a first window,
	// which brings per-source detector state (EWMA maps, de-auth window) to
	// steady-state capacity.
	if n := testing.AllocsPerRun(1, window); n != 0 {
		t.Fatalf("steady-state detection allocates: %v allocs over %d ticks, want 0", n, ticks)
	}
	if n := engine.Total(); n != 0 {
		t.Fatalf("benign telemetry raised %d alerts (%v), want none", n, engine.Alerts())
	}
}

// TestDeauthWindowZeroAllocs measures the de-auth sliding window on its own,
// one event per call, so a window that grew on every event fails here even
// though TestDetectZeroAllocs feeds it only every sixth tick.
func TestDeauthWindowZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	d := NewDeauthFloodDetector(5, 10*time.Second)
	n := 0
	deauth := func() {
		// 3s apart: at most four events stay inside the 10s window, one below the
		// alert threshold, so every call trims the window in place.
		if alerts := d.Process(Event{Kind: EventDeauth, At: time.Duration(n) * 3 * time.Second, Source: "ap-1"}); alerts != nil {
			t.Fatalf("event %d raised %v, want none below the threshold", n, alerts)
		}
		n++
	}
	const events = 200
	// One run over all events, so the count is exact (AllocsPerRun truncates
	// its mean); the warm-up call fills the window to steady-state capacity.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			deauth()
		}
	}); n != 0 {
		t.Fatalf("de-auth window allocates: %v allocs over %d events, want 0", n, events)
	}
}
