package bench

import (
	"strings"
	"testing"
)

func gateFile(entries ...Entry) File { return File{Entries: entries} }

// A run matching the record within tolerance, with every gated benchmark
// allocation-free where required, passes the gate.
func TestGatePasses(t *testing.T) {
	old := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9000, AllocsPerOp: 0},
		Entry{Name: "securechan-seal", NsPerOp: 120, AllocsPerOp: 0},
		Entry{Name: "securechan-open", NsPerOp: 110, AllocsPerOp: 0},
		Entry{Name: "e1-run-secured", NsPerOp: 11e6},
	)
	new := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9500, AllocsPerOp: 0},
		Entry{Name: "securechan-seal", NsPerOp: 125, AllocsPerOp: 0},
		Entry{Name: "securechan-open", NsPerOp: 100, AllocsPerOp: 0},
		Entry{Name: "e1-run-secured", NsPerOp: 11.5e6, AllocsPerOp: 29000},
	)
	if v := Gate(old, new, DefaultGateTolerance); len(v) != 0 {
		t.Fatalf("gate failed on an in-tolerance run: %v", v)
	}
}

// Each rule fires independently: a regained allocation, an ns/op regression
// beyond tolerance, and a gated benchmark missing from the run.
func TestGateViolations(t *testing.T) {
	old := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9000, AllocsPerOp: 0},
		Entry{Name: "securechan-seal", NsPerOp: 120, AllocsPerOp: 0},
		Entry{Name: "securechan-open", NsPerOp: 110, AllocsPerOp: 0},
		Entry{Name: "e1-run-secured", NsPerOp: 11e6},
	)
	new := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9000, AllocsPerOp: 3},   // regained allocs
		Entry{Name: "securechan-seal", NsPerOp: 150, AllocsPerOp: 0}, // +25% ns/op
		Entry{Name: "e1-run-secured", NsPerOp: 11e6},
		// securechan-open missing entirely
	)
	v := Gate(old, new, DefaultGateTolerance)
	if len(v) != 3 {
		t.Fatalf("want 3 violations, got %d: %v", len(v), v)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{
		"tick-secured: 3 allocs/op",
		"securechan-seal: ns/op regressed +25.0%",
		"securechan-open: gated benchmark missing",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}

// A gated benchmark absent from the committed record (its first recorded
// run) skips the delta rule but still enforces the zero-alloc bound.
func TestGateNewBenchmark(t *testing.T) {
	old := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9000},
		Entry{Name: "securechan-open", NsPerOp: 110},
		Entry{Name: "e1-run-secured", NsPerOp: 11e6},
	)
	new := gateFile(
		Entry{Name: "tick-secured", NsPerOp: 9000, AllocsPerOp: 0},
		Entry{Name: "securechan-seal", NsPerOp: 99999, AllocsPerOp: 1}, // no baseline: delta skipped, allocs still gated
		Entry{Name: "securechan-open", NsPerOp: 110, AllocsPerOp: 0},
		Entry{Name: "e1-run-secured", NsPerOp: 11e6},
	)
	v := Gate(old, new, DefaultGateTolerance)
	if len(v) != 1 || !strings.Contains(v[0], "securechan-seal: 1 allocs/op") {
		t.Fatalf("want exactly the zero-alloc violation for the new benchmark, got %v", v)
	}
}
