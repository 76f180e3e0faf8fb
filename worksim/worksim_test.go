package worksim_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/event"
	"repro/worksim/scenariospec"
)

func TestVersionIsSemver(t *testing.T) {
	parts := strings.Split(worksim.Version, ".")
	if len(parts) != 3 {
		t.Fatalf("worksim.Version = %q, want MAJOR.MINOR.PATCH", worksim.Version)
	}
	for _, p := range parts {
		if _, err := strconv.Atoi(p); err != nil {
			t.Fatalf("worksim.Version = %q: non-numeric component %q", worksim.Version, p)
		}
	}
}

// TestOpenDefaultsAndOptions: the options move the run; the defaults are
// the documented ones.
func TestOpenDefaultsAndOptions(t *testing.T) {
	sess, err := worksim.Open(worksim.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Horizon() != worksim.DefaultHorizon {
		t.Fatalf("default horizon = %v, want %v", sess.Horizon(), worksim.DefaultHorizon)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Config.Seed != worksim.DefaultSeed {
		t.Fatalf("default seed = %d, want %d", rep.Config.Seed, worksim.DefaultSeed)
	}

	sess2, err := worksim.Open(worksim.Baseline(),
		worksim.WithSeed(99),
		worksim.WithHorizon(3*time.Minute),
		worksim.WithProfile(worksim.Secured()))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sess2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Config.Seed != 99 || rep2.Duration != 3*time.Minute {
		t.Fatalf("options ignored: seed=%d duration=%v", rep2.Config.Seed, rep2.Duration)
	}
	if rep2.Config.Profile != worksim.Secured() {
		t.Fatal("WithProfile did not replace the scenario profile")
	}
}

// TestOpenMatchesInternalRun: the façade's closed loop is the same
// simulation as the engine's — byte-identical reports for the same
// (scenario, seed, horizon).
func TestOpenMatchesInternalRun(t *testing.T) {
	spec, err := worksim.Lookup("gnss-spoof")
	if err != nil {
		t.Fatal(err)
	}
	const seed, d = 11, 4 * time.Minute

	sessA, err := worksim.Open(spec, worksim.WithSeed(seed), worksim.WithHorizon(d))
	if err != nil {
		t.Fatal(err)
	}
	repA, err := sessA.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Same run driven tick by tick through the stepper.
	sessB, err := worksim.Open(spec, worksim.WithSeed(seed), worksim.WithHorizon(d))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sessB.Step(); !ok {
			break
		}
	}
	if err := sessB.Err(); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(repA)
	jb, _ := json.Marshal(sessB.Report())
	if string(ja) != string(jb) {
		t.Fatal("stepped session report differs from closed-loop report")
	}
}

// TestWithSampleInterval: the sampler records a downsampled series and does
// not perturb the run.
func TestWithSampleInterval(t *testing.T) {
	spec := worksim.Baseline()
	const d = 4 * time.Minute

	plain, err := worksim.Open(spec, worksim.WithHorizon(d))
	if err != nil {
		t.Fatal(err)
	}
	plainRep, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	sampled, err := worksim.Open(spec, worksim.WithHorizon(d), worksim.WithSampleInterval(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sampled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	series := sampled.Timeseries()
	if len(series) != 3 {
		// Samples land on the first tick at/after 1m, 2m, 3m; the 4m
		// boundary has no following tick inside the horizon.
		t.Fatalf("len(series) = %d, want 3 (at 1m, 2m, 3m)", len(series))
	}
	for i, p := range series {
		want := time.Duration(i+1) * time.Minute
		if p.At < want || p.At >= want+time.Minute {
			t.Fatalf("series[%d].At = %v, want in [%v, %v)", i, p.At, want, want+time.Minute)
		}
	}
	if !reflect.DeepEqual(plainRep, rep) {
		t.Fatal("sampling observer changed the run outcome")
	}
	if plain.Timeseries() != nil {
		t.Fatal("Timeseries without WithSampleInterval should be nil")
	}
}

// TestCatalogSurface: the catalog is non-empty, sorted lookups round-trip,
// and every attack class has a same-named scenario reachable through the
// façade.
func TestCatalogSurface(t *testing.T) {
	names := worksim.Catalog()
	if len(names) == 0 {
		t.Fatal("empty catalog")
	}
	for _, name := range names {
		spec, err := worksim.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if spec.Name != name {
			t.Fatalf("Lookup(%q).Name = %q", name, spec.Name)
		}
	}
	if _, err := worksim.Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup of unknown scenario succeeded")
	}
	for _, atk := range worksim.AttackNames() {
		spec, err := worksim.ForAttack(atk)
		if err != nil {
			t.Fatalf("ForAttack(%q): %v", atk, err)
		}
		if len(spec.Attacks) == 0 {
			t.Fatalf("ForAttack(%q) returned a clean scenario", atk)
		}
	}
	clean, err := worksim.ForAttack("none")
	if err != nil || len(clean.Attacks) != 0 {
		t.Fatalf("ForAttack(none) = (%d attacks, %v), want clean baseline", len(clean.Attacks), err)
	}
}

// TestParseSpecOverlay: ParseSpec overlays the baseline, and the spec/event
// subpackage types interoperate with the top-level aliases without
// conversion.
func TestParseSpecOverlay(t *testing.T) {
	spec, err := worksim.ParseSpec([]byte(`{"name":"x","workers":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Workers != 7 {
		t.Fatalf("Workers = %d, want 7", spec.Workers)
	}
	base := scenariospec.Baseline()
	if spec.Site != base.Site {
		t.Fatal("unstated fields did not inherit the baseline")
	}

	// Alias interop: a scenariospec.Spec is a worksim.Scenario; an
	// event.Tick flows through a predicate typed either way.
	var s worksim.Scenario = base
	sess, err := worksim.Open(s, worksim.WithHorizon(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	fired, err := sess.RunUntil(context.Background(), func(tk event.Tick) bool { return tk.N >= 3 })
	if err != nil || !fired {
		t.Fatalf("RunUntil = (%v, %v), want fired", fired, err)
	}
}

// TestSweepEmptySeedRange: a seed count of zero or less is an error, not a
// panic, before any run starts.
func TestSweepEmptySeedRange(t *testing.T) {
	for _, count := range []int{0, -2} {
		_, err := worksim.Sweep(context.Background(), worksim.SweepOptions{
			Scenarios: []string{"baseline"},
			Seeds:     worksim.SeedRange{Base: 1, Count: count},
		})
		if err == nil || !strings.Contains(err.Error(), "empty seed range") {
			t.Fatalf("Count %d: err = %v, want empty seed range", count, err)
		}
	}
}
