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
	const period = 500 * time.Millisecond
	tickNo := 0
	tick := func() {
		at := time.Duration(tickNo) * period
		tickNo++
		engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "harvester-1", OK: true, Value: 1})
		engine.Ingest(Event{Kind: EventLinkSample, At: at, Source: "forwarder-1", OK: true, Value: 1})
		engine.Ingest(Event{Kind: EventGNSSVerdict, At: at, Source: "harvester-1", OK: true})
		// One de-auth every five ticks (2.5s) keeps four events inside the
		// 10s flood window — exercising the window trim without crossing the
		// five-event alert threshold.
		if tickNo%5 == 0 {
			engine.Ingest(Event{Kind: EventDeauth, At: at, Source: "ap-1", OK: true})
		}
	}

	// Warm per-source detector state (EWMA maps, de-auth window) to
	// steady-state capacity.
	for i := 0; i < 64; i++ {
		tick()
	}
	avg := testing.AllocsPerRun(200, tick)
	if avg != 0 {
		t.Fatalf("steady-state detection allocates: %v allocs/op, want 0", avg)
	}
}

// TestDeauthWindowZeroAllocs measures the de-auth sliding window one event
// per run. TestDetectZeroAllocs feeds a de-auth only every fifth tick, and
// AllocsPerRun truncates its mean to an integer, so a window that grew on
// every event would still read 0 there.
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
	for i := 0; i < 8; i++ {
		deauth()
	}
	if avg := testing.AllocsPerRun(200, deauth); avg != 0 {
		t.Fatalf("de-auth window allocates: %v allocs/event, want 0", avg)
	}
}
