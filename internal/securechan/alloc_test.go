package securechan

import (
	"testing"
)

// TestSealOpenZeroAllocs locks the pooled record layer at zero heap
// allocations per steady-state Seal and per steady-state Open, mirroring the
// worksite tick-loop lock: a regression fails `go test` instead of waiting
// for someone to read the securechan-seal/open benchmarks.
func TestSealOpenZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	p := handshakePair(t, Options{})
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Every step seals one record, and the paired receiver opens it in the
	// same step so both directions are locked together. The record is
	// consumed before the next Seal overwrites the pooled buffer.
	const records = 100
	window := func() {
		for i := 0; i < records; i++ {
			rec, err := p.init.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.resp.Open(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun truncates its mean to an integer, so the whole window is
	// one run and the count is exact. Its warm-up call runs a first window,
	// which brings both pooled record buffers to steady-state capacity.
	if n := testing.AllocsPerRun(1, window); n != 0 {
		t.Fatalf("steady-state Seal+Open allocates: %v allocs over %d records, want 0", n, records)
	}
}
