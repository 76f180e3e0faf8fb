package campaign

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRegistryRegisterAndSelect(t *testing.T) {
	r := NewRegistry()
	mk := func(id string) Experiment {
		return Experiment{ID: id, Run: func(context.Context, Params) (Outcome, error) { return Outcome{}, nil }}
	}
	for _, id := range []string{"b", "a", "c"} {
		if err := r.Register(mk(id)); err != nil {
			t.Fatalf("register %q: %v", id, err)
		}
	}
	if err := r.Register(mk("a")); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(mk("")); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := r.Register(mk("UPPER")); err == nil {
		t.Fatal("uppercase ID accepted")
	}
	if err := r.Register(Experiment{ID: "norun"}); err == nil {
		t.Fatal("nil Run accepted")
	}
	// Registration order is preserved.
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "b" || ids[1] != "a" || ids[2] != "c" {
		t.Fatalf("IDs = %v", ids)
	}
	sel, err := r.Select([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].ID != "c" || sel[1].ID != "a" {
		t.Fatalf("Select order broken: %v", sel)
	}
	all, err := r.Select([]string{"all"})
	if err != nil || len(all) != 3 {
		t.Fatalf("Select(all) = %d exps, err %v", len(all), err)
	}
	if _, err := r.Select([]string{"nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown ID not rejected: %v", err)
	}
}

func TestSeedRange(t *testing.T) {
	s := SeedRange{Base: 5, Count: 3}
	got := s.Seeds()
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Fatalf("Seeds() = %v", got)
	}
	for _, count := range []int{0, -2} {
		if got := (SeedRange{Base: 1, Count: count}).Seeds(); got != nil {
			t.Fatalf("Count %d: Seeds() = %v, want nil", count, got)
		}
	}
}

func TestParamsWithDefaults(t *testing.T) {
	d := Params{Duration: time.Minute, Trials: 10, Scenarios: 4}
	p := Params{Seed: 9}.WithDefaults(d)
	if p.Seed != 9 || p.Duration != time.Minute || p.Trials != 10 || p.Scenarios != 4 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	p = Params{Seed: 0, Duration: time.Second, Trials: 1, Scenarios: 1}.WithDefaults(d)
	if p.Seed != 0 || p.Duration != time.Second || p.Trials != 1 || p.Scenarios != 1 {
		t.Fatalf("explicit params overridden: %+v", p)
	}
}

// seedEcho is a synthetic experiment whose metric is a pure function of the
// seed, convenient for checking aggregation math exactly.
func seedEcho() Experiment {
	return Experiment{
		ID:      "echo",
		Section: "test",
		Run: func(_ context.Context, p Params) (Outcome, error) {
			return Outcome{Metrics: map[string]float64{"seed": float64(p.Seed)}}, nil
		},
	}
}

func TestRunAggregation(t *testing.T) {
	res, err := Run(context.Background(), seedEcho(), Options{Seeds: SeedRange{Base: 1, Count: 4}, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSeed) != 4 {
		t.Fatalf("per-seed runs = %d", len(res.PerSeed))
	}
	for i, r := range res.PerSeed {
		if r.Seed != int64(1+i) {
			t.Fatalf("per-seed order broken: %v", res.PerSeed)
		}
	}
	if len(res.Aggregates) != 1 {
		t.Fatalf("aggregates = %v", res.Aggregates)
	}
	a := res.Aggregates[0]
	// seeds 1..4: mean 2.5, sample stddev sqrt(5/3), min 1, max 4.
	wantStd := math.Sqrt(5.0 / 3.0)
	if a.Metric != "seed" || a.N != 4 || a.Mean != 2.5 || a.Min != 1 || a.Max != 4 {
		t.Fatalf("aggregate = %+v", a)
	}
	if math.Abs(a.Stddev-wantStd) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", a.Stddev, wantStd)
	}
	half := 1.96 * wantStd / 2
	if math.Abs(a.CI95Lo-(2.5-half)) > 1e-12 || math.Abs(a.CI95Hi-(2.5+half)) > 1e-12 {
		t.Fatalf("CI = [%v, %v]", a.CI95Lo, a.CI95Hi)
	}
}

func TestRunSingleSeedCI(t *testing.T) {
	res, err := Run(context.Background(), seedEcho(), Options{Seeds: SeedRange{Base: 7, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Aggregates[0]
	if a.Stddev != 0 || a.CI95Lo != a.Mean || a.CI95Hi != a.Mean {
		t.Fatalf("single-seed CI must collapse to the mean: %+v", a)
	}
}

func TestRunSeedIndependentCollapses(t *testing.T) {
	calls := 0
	exp := Experiment{
		ID:              "pure",
		SeedIndependent: true,
		Run: func(_ context.Context, p Params) (Outcome, error) {
			calls++
			return Outcome{Metrics: map[string]float64{"x": 7}}, nil
		},
	}
	res, err := Run(context.Background(), exp, Options{Seeds: SeedRange{Base: 3, Count: 8}, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("seed-independent experiment ran %d times, want 1", calls)
	}
	if len(res.PerSeed) != 1 || res.PerSeed[0].Seed != 3 {
		t.Fatalf("per-seed = %+v", res.PerSeed)
	}
	if res.Seeds.Count != 1 {
		t.Fatalf("recorded seed range not collapsed: %+v", res.Seeds)
	}
	if a := res.Aggregates[0]; a.N != 1 || a.Mean != 7 {
		t.Fatalf("aggregate = %+v", a)
	}
}

func TestRunEmptySeedRange(t *testing.T) {
	for _, count := range []int{0, -2} {
		_, err := Run(context.Background(), seedEcho(), Options{Seeds: SeedRange{Base: 1, Count: count}})
		if err == nil || !strings.Contains(err.Error(), "empty seed range") {
			t.Fatalf("Count %d: err = %v, want empty seed range", count, err)
		}
	}
}

func TestRunPropagatesError(t *testing.T) {
	boom := Experiment{ID: "boom", Run: func(_ context.Context, p Params) (Outcome, error) {
		if p.Seed == 3 {
			return Outcome{}, errSentinel
		}
		return Outcome{Metrics: map[string]float64{"x": 1}}, nil
	}}
	_, err := Run(context.Background(), boom, Options{Seeds: SeedRange{Base: 1, Count: 4}, Parallel: 4})
	if err == nil || !strings.Contains(err.Error(), "seed 3") {
		t.Fatalf("error not propagated with seed: %v", err)
	}
}

var errSentinel = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestResultTableAndJSONDeterministic(t *testing.T) {
	run := func(parallel int) *Result {
		res, err := Run(context.Background(), seedEcho(), Options{Seeds: SeedRange{Base: 1, Count: 6}, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(6)
	if a.Table().Render() != b.Table().Render() {
		t.Fatal("aggregate table depends on pool width")
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("JSON export depends on pool width")
	}
}
