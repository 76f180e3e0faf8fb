package worksim_test

import (
	"context"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/event"
	"repro/worksim/scenariospec"
)

// Cost bounds of one FuzzSpecRun execution: grid size, worker count and
// tick period. A spec outside them is valid but too expensive to run
// thousands of times a second, so the target parses it and skips the run.
// Attack periods need no bound here: Spec.Validate rejects any under 1 ms.
// The bounds keep the fuzzer exploring; they never forgive a failure.
const (
	fuzzHorizon    = 30 * time.Second
	fuzzMinTick    = 50 * time.Millisecond
	fuzzMaxCells   = 200 * 200
	fuzzMaxWorkers = 16
)

// fuzzAffordable reports whether spec is inside the cost bounds.
func fuzzAffordable(spec scenariospec.Spec) bool {
	return spec.Site.Cols <= fuzzMaxCells/max(spec.Site.Rows, 1) && spec.Workers <= fuzzMaxWorkers &&
		(spec.Timing.TickPeriod <= 0 || spec.Timing.TickPeriod >= fuzzMinTick)
}

// FuzzSpecRun fuzzes the engine behind the spec parser: every spec Parse
// accepts is opened with worksim.Open and run for a short horizon under
// its own security profile. The target asserts that nothing panics and
// that the event stream keeps the invariants TestEventStreamInvariants
// checks on the catalog: monotonic ticks, paired attack phases, and
// alternating fail-safe and unsafe-episode latches. A spec the engine's
// configuration check rejects is fine; a run that fails after opening is
// not. The seed corpus is the catalog under both profiles, plus the edges
// of the cost bounds.
func FuzzSpecRun(f *testing.F) {
	for _, name := range worksim.Catalog() {
		spec, err := worksim.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, profile := range worksim.Profiles() {
			prof, err := worksim.ResolveProfile(profile)
			if err != nil {
				f.Fatal(err)
			}
			data, err := spec.WithProfile(prof).JSON()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, s := range []string{
		`{"timing":{"tickPeriodNs":50000000}}`,
		`{"timing":{"tickPeriodNs":60000000000}}`,
		`{"site":{"cols":200,"rows":200,"cellSizeM":1}}`,
		`{"workers":16,"drone":false}`,
		`{"attacks":[{"name":"deauth-flood","startFrac":0,"stopFrac":1,"params":{"periodMs":1}}]}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(runFuzzSpec)
}

// runFuzzSpec is one FuzzSpecRun execution.
func runFuzzSpec(t *testing.T, data []byte) {
	spec, err := scenariospec.Parse(data)
	if err != nil {
		return
	}
	if !fuzzAffordable(spec) {
		return
	}
	rec := &streamRecorder{}
	s, err := worksim.Open(spec,
		worksim.WithSeed(1),
		worksim.WithHorizon(fuzzHorizon),
		worksim.WithObserver(rec.observer()),
	)
	if err != nil {
		return
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatalf("accepted spec failed to run (%v): %s", err, data)
	}
	// A tick period longer than the horizon legitimately publishes no
	// tick; any tick that is published must still count and advance.
	if len(rec.ticks) > 0 || spec.Timing.TickPeriod <= fuzzHorizon {
		checkTickMonotonic(t, rec.ticks)
	}
	checkAttackPairing(t, rec.attacks)
	checkAlternating(t, "fail-safe", rec.failsafe,
		event.SafetyFailSafeEngaged, event.SafetyFailSafeReleased)
	checkAlternating(t, "unsafe-episode", rec.unsafe,
		event.SafetyUnsafeEnter, event.SafetyUnsafeExit)
}
