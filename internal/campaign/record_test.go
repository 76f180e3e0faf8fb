package campaign

// Run-record tests: the binary payload the result cache holds must give
// back every float bit for bit, reject damage as errRecord and a foreign
// (JSON) payload as resultcache.ErrOtherFormat, never panic, and decode a
// warm hit with a pinned number of allocations.

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/worksite"
)

// sameOutcome reports whether two outcomes carry the same record: metric
// names and float bits, points field for field with floats by bits, and
// StoppedAt.
func sameOutcome(a, b Outcome) bool {
	if a.StoppedAt != b.StoppedAt || len(a.Metrics) != len(b.Metrics) || len(a.Timeseries) != len(b.Timeseries) {
		return false
	}
	for k, v := range a.Metrics {
		w, ok := b.Metrics[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	for i, p := range a.Timeseries {
		q := b.Timeseries[i]
		if math.Float64bits(p.NavErrM) != math.Float64bits(q.NavErrM) ||
			math.Float64bits(p.MinWorkerDistM) != math.Float64bits(q.MinWorkerDistM) {
			return false
		}
		p.NavErrM, p.MinWorkerDistM, q.NavErrM, q.MinWorkerDistM = 0, 0, 0, 0
		if p != q {
			return false
		}
	}
	return true
}

func TestRunRecordRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	outs := map[string]Outcome{
		"sweep metrics": {Metrics: SweepMetrics(worksite.Report{})},
		"special floats": {Metrics: map[string]float64{"neg_zero": negZero, "nan": math.NaN(), "inf": math.Inf(-1),
			"subnormal": 5e-324, "": 1}},
		"points": {Metrics: map[string]float64{}, StoppedAt: -time.Second, Timeseries: []TimePoint{
			{At: time.Minute, Mission: "to-landing", Mode: "safe-stop", NavErrM: negZero, MinWorkerDistM: math.NaN(),
				Stopped: true, LogsDelivered: 3, Collisions: -1, UnsafeEpisodes: math.MaxInt32, Alerts: math.MinInt32},
			{Mission: "日本\xff"},
		}},
	}
	for name, out := range outs {
		t.Run(name, func(t *testing.T) {
			if !raceEnabled {
				if n := testing.AllocsPerRun(10, func() { appendRunRecord(nil, out) }); n != 1 {
					t.Fatalf("encoding took %v allocations, want 1: the size computed up front is short", n)
				}
			}
			got, err := decodeRunRecord(appendRunRecord(nil, out))
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutcome(out, got) || got.Metrics == nil {
				t.Fatalf("round trip = %+v, want %+v", got, out)
			}
			if len(out.Timeseries) == 0 && got.Timeseries != nil {
				t.Fatal("a record without points decoded to a non-nil timeseries")
			}
		})
	}
}

func TestRunRecordRejects(t *testing.T) {
	good := appendRunRecord(nil, Outcome{Metrics: map[string]float64{"a": 1, "b": 2},
		Timeseries: []TimePoint{{Mission: "m"}}})
	other := map[string][]byte{
		"empty":        nil,
		"JSON payload": []byte(`{"metrics":{"a":1,"b":2}}`),
		"next format":  append([]byte{recordFormat + 1}, good[1:]...),
	}
	for name, b := range other {
		if _, err := decodeRunRecord(b); !errors.Is(err, resultcache.ErrOtherFormat) {
			t.Errorf("%s: err = %v, want ErrOtherFormat", name, err)
		}
	}
	// Offsets into good: format 0, StoppedAt 1, metric count 9, "a" 13,
	// its bits 18, "b" 26, its bits 31, point count 39, the point 43.
	damaged := map[string][]byte{
		"format byte only": good[:1],
		"cut":              good[:len(good)-1],
		"trailing byte":    append(append([]byte(nil), good...), 0),
		"count too large":  patch(good, 9, 3),
		"names unsorted":   patch(patch(good, 17, 'b'), 30, 'a'),
		"names repeated":   patch(good, 30, 'a'),
		"name runs past":   patch(good, 13, 0xff),
		"stopped byte 2":   patch(good, 43+8+4+1+4+8+8, 2),
		"point count high": patch(good, 39, 2),
	}
	for name, b := range damaged {
		if _, err := decodeRunRecord(b); !errors.Is(err, errRecord) {
			t.Errorf("%s: err = %v, want errRecord", name, err)
		}
	}
}

// patch returns a copy of b with b[i] set to v.
func patch(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

// FuzzRunRecord: decoding arbitrary bytes never panics, and a record built
// from fuzzed values decodes back to them, floats by bits (-0 included).
func FuzzRunRecord(f *testing.F) {
	good := appendRunRecord(nil, Outcome{Metrics: SweepMetrics(worksite.Report{}), StoppedAt: time.Second,
		Timeseries: []TimePoint{{Mission: "to-landing", Mode: "nominal", NavErrM: 1.5, Stopped: true, Alerts: 2}}})
	f.Add(good, "logs", math.Float64bits(math.Copysign(0, -1)), int64(0), "nominal", true)
	f.Add([]byte(`{"metrics":{}}`), "", uint64(0x7ff8000000000001), int64(-1), "", false)
	f.Add(good[:len(good)/2], "日本", uint64(1), int64(math.MaxInt64), "\xff", true)
	f.Fuzz(func(t *testing.T, data []byte, name string, bits uint64, n int64, mode string, stopped bool) {
		if out, err := decodeRunRecord(data); err == nil {
			// Whatever decodes re-encodes to the same bytes.
			if b := appendRunRecord(nil, out); string(b) != string(data) {
				t.Fatalf("decode then encode changed the record:\n got %x\nwant %x", b, data)
			}
		}
		f := math.Float64frombits(bits)
		out := Outcome{Metrics: map[string]float64{name: f, name + "~": -f}, StoppedAt: time.Duration(n)}
		if stopped {
			out.Timeseries = []TimePoint{{At: time.Duration(n), Mode: mode, Mission: name, NavErrM: f,
				MinWorkerDistM: -f, Stopped: true, LogsDelivered: int(int32(n)), Alerts: int(int32(bits))}}
		}
		got, err := decodeRunRecord(appendRunRecord(nil, out))
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(out, got) {
			t.Fatalf("round trip = %+v, want %+v", got, out)
		}
	})
}

// TestWarmHitDecodeAllocs: one warm hit — key bytes, table lookup, read,
// checksum and record decode of a sweep run's 15 metrics — allocates
// nothing but the metric map it returns, which for 15 entries is four
// blocks on go1.24's map: the key and record buffers are reused, the
// header is parsed in place, and the names are shared, not copied.
func TestWarmHitDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dir := t.TempDir()
	key := resultcache.Key{SpecHash: "ab", Profile: "secured", Seed: 1, DurationNs: int64(time.Minute), Engine: "x"}
	out := Outcome{Metrics: SweepMetrics(worksite.Report{})}
	w, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutBytes(key, appendRunRecord(nil, out)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := resultcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, hit, err := lookup(c, key); err != nil || !hit || !reflect.DeepEqual(got.Metrics, out.Metrics) {
		t.Fatalf("lookup = (%v, %v, %v), want a hit on the stored record", got, hit, err)
	}
	// AllocsPerRun truncates its mean to an integer, so all calls are one
	// run and the total must equal the call count times the pinned count.
	const calls, perHit = 100, 4
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < calls; i++ {
			if _, hit, err := lookup(c, key); err != nil || !hit {
				t.Fatalf("lookup = (%v, %v), want a hit", hit, err)
			}
		}
	})
	if allocs != calls*perHit {
		t.Fatalf("%v allocations in %d warm hits, want exactly %d", allocs, calls, calls*perHit)
	}
}
