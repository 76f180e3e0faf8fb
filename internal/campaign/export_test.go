package campaign

// Export tests: the append encoder behind (*Result).JSON and
// (*SweepResult).JSON must return exactly json.MarshalIndent's bytes (or
// its error) for every value, and must cover — not fall back on — the
// exports a catalog sweep produces, or the reflection it replaces is back.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// writeExport runs the append writer alone and reports whether it covered
// v without falling back.
func writeExport(v any) ([]byte, bool) {
	w := jsonWriter{ok: true}
	switch v := v.(type) {
	case *Result:
		w.result(v)
	case *SweepResult:
		w.sweep(v)
	}
	return w.b, w.ok
}

// checkExport requires v.JSON() to equal json.MarshalIndent(v, "", "  "),
// error for error, and reports whether the append writer covered v.
func checkExport(t *testing.T, v interface{ JSON() ([]byte, error) }) bool {
	t.Helper()
	want, werr := json.MarshalIndent(v, "", "  ")
	got, gerr := v.JSON()
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("JSON error = %v, MarshalIndent error = %v", gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("JSON differs from MarshalIndent:\n got %s\nwant %s", got, want)
	}
	_, ok := writeExport(v)
	return ok
}

func TestExportMatchesMarshalIndent(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := map[string]float64{
		"neg_zero": negZero, "subnormal": 5e-324, "e_switch_lo": 1e-6, "below_e_lo": 9.999999999999999e-7,
		"e_switch_hi": 1e21, "below_e_hi": 9.999999999999999e20, "neg_hi": -1e21, "plain": 123.456,
		"min_normal": 2.2250738585072014e-308, "max": math.MaxFloat64,
	}
	full := &Result{
		Version: "0.9.0", ExperimentID: "rf-jamming-narrowband/secured", Section: "sweep",
		Description: "narrowband jammer on channel 1 — the channel-agility (E5b) adversary",
		Params:      Params{Seed: -3, Duration: 10 * time.Minute, Trials: 7, Scenarios: 2},
		Seeds:       SeedRange{Base: math.MinInt64, Count: 2},
		PerSeed: []SeedRun{
			{Seed: 1, Metrics: floats, Timeseries: []TimePoint{
				{At: time.Second, Mission: "to-landing", Mode: "cautious", NavErrM: negZero, MinWorkerDistM: 1e21,
					Stopped: true, LogsDelivered: 1, Collisions: -2, UnsafeEpisodes: 3, Alerts: math.MaxInt32},
				{},
			}, StoppedAt: 90 * time.Second},
			{Seed: 2, Metrics: map[string]float64{}, Timeseries: []TimePoint{}},
			{Seed: 3},
		},
		Aggregates: []Aggregate{{Metric: "logs", N: 3, Mean: 1.5, Stddev: negZero, Min: 5e-324, Max: 1e21,
			CI95Lo: -1e-7, CI95Hi: 0.1}},
	}
	covered := map[string]interface{ JSON() ([]byte, error) }{
		"zero result":       &Result{},
		"nil result":        (*Result)(nil),
		"empty slices":      &Result{PerSeed: []SeedRun{}, Aggregates: []Aggregate{}},
		"full result":       full,
		"zero sweep":        &SweepResult{},
		"nil sweep":         (*SweepResult)(nil),
		"empty cells":       &SweepResult{Cells: []SweepCell{}},
		"sweep with shard":  &SweepResult{Version: "v", Duration: time.Minute, Shard: &ShardInfo{Index: 1, Count: 3}, Cells: []SweepCell{{Scenario: "a", Profile: "b", Result: full}, {Scenario: "c"}}},
		"non-ASCII text":    &Result{ExperimentID: "é—日本\U0001F332", Description: "\u00a0\ufffd\u007f"},
		"non-ASCII map key": &Result{PerSeed: []SeedRun{{Metrics: map[string]float64{"ß": 1, "a": 2, "Z": 3, "": 4}}}},
	}
	for name, v := range covered {
		t.Run(name, func(t *testing.T) {
			if !checkExport(t, v) {
				t.Fatal("the append writer fell back on a value it covers")
			}
		})
	}
	// Strings encoding/json escapes or replaces, and floats it rejects,
	// send the export to MarshalIndent, which writes the same bytes or
	// reports the same error.
	fallback := map[string]interface{ JSON() ([]byte, error) }{
		"html":          &Result{Description: "a <b> & c"},
		"quote":         &SweepResult{Cells: []SweepCell{{Scenario: `say "hi"`}}},
		"control":       &Result{ExperimentID: "line\nbreak\t"},
		"invalid UTF-8": &Result{Section: "\xff\xfe"},
		"U+2028":        &Result{Section: "a\u2028b"},
		"escaped key":   &Result{PerSeed: []SeedRun{{Metrics: map[string]float64{"a&b": 1}}}},
		"NaN":           &Result{PerSeed: []SeedRun{{Metrics: map[string]float64{"x": math.NaN()}}}},
		"+Inf":          &Result{Aggregates: []Aggregate{{Max: math.Inf(1)}}},
	}
	for name, v := range fallback {
		t.Run(name, func(t *testing.T) {
			if checkExport(t, v) {
				t.Fatal("the append writer covered a value encoding/json escapes or rejects")
			}
		})
	}
}

// TestCatalogSweepExportCovered: the export of a whole-catalog sweep, with
// timeseries and early stops, is written by the append writer, not by the
// fallback, and equals MarshalIndent's bytes.
func TestCatalogSweepExportCovered(t *testing.T) {
	stop, err := EarlyStopByName("first-alert")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), SweepOptions{
		Seeds: SeedRange{Base: 1, Count: 1}, Duration: time.Minute,
		SampleEvery: 20 * time.Second, EarlyStop: stop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !checkExport(t, res) {
		t.Fatal("the catalog sweep export fell back to MarshalIndent")
	}
	for _, c := range res.Cells {
		if !checkExport(t, c.Result) {
			t.Fatalf("the %s export fell back to MarshalIndent", c.Result.ExperimentID)
		}
	}
}

// FuzzResultJSON: for any strings, floats and nil-or-empty shapes, the
// export equals MarshalIndent's bytes or fails as MarshalIndent does.
func FuzzResultJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("0.9.0", "clean E1 worksite — drone on", "logs", 12.0, negZero, int64(42), uint8(0), "to-landing")
	f.Add("", "", "", 5e-324, 1e21, int64(math.MinInt64), uint8(0xff), "")
	f.Add("v<1>", "a\u2028b", "a&b", 1e-6, 9.999999999999999e-7, int64(-1), uint8(0x5a), "\xff")
	f.Add("日本", "\u007f\"\\", "ß", -1e21, math.MaxFloat64, int64(1), uint8(0xa5), "cautious")
	f.Fuzz(func(t *testing.T, version, text, metric string, a, b float64, n int64, shape uint8, mission string) {
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		r := &Result{Version: version, ExperimentID: text, Description: text, Section: metric,
			Params: Params{Seed: n, Duration: time.Duration(n)}, Seeds: SeedRange{Base: n, Count: int(int32(n))}}
		run := SeedRun{Seed: n, StoppedAt: time.Duration(n)}
		if !bit(0) {
			run.Metrics = map[string]float64{metric: a, "b": b, text: a * b}
		} else if bit(1) {
			run.Metrics = map[string]float64{}
		}
		if bit(2) {
			run.Timeseries = []TimePoint{{At: time.Duration(n), Mission: mission, Mode: text, NavErrM: a,
				MinWorkerDistM: b, Stopped: bit(3), LogsDelivered: int(int32(n)), Alerts: -1}}
		}
		if !bit(4) {
			r.PerSeed = []SeedRun{run, {Seed: -n}}
			r.Aggregates = aggregate(r.PerSeed)
		} else if bit(5) {
			r.PerSeed, r.Aggregates = []SeedRun{}, []Aggregate{}
		}
		checkExport(t, r)
		s := &SweepResult{Version: version, Duration: time.Duration(n), Seeds: r.Seeds}
		if bit(6) {
			s.Shard = &ShardInfo{Index: int(int32(n)), Count: 2}
		}
		if !bit(7) {
			s.Cells = []SweepCell{{Scenario: text, Profile: mission, Result: r}, {Scenario: metric}}
		}
		checkExport(t, s)
	})
}
