package tracefmt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/scenario"
	"repro/internal/worksite"
)

// TestMarshalEnvelope: Marshal wraps any event in the stable
// {"event": KIND, "data": {...}} envelope, one line, no trailing newline.
func TestMarshalEnvelope(t *testing.T) {
	events := []worksite.Event{
		worksite.ModeChange{At: 3 * time.Second, From: "normal", To: "cautious"},
		worksite.AttackPhase{At: time.Minute, Attack: "gnss-jam", Active: true},
		worksite.MissionPhase{At: 9 * time.Second, Phase: "loading", Detail: "phase -> loading"},
		worksite.SafetyEvent{At: 2 * time.Second, Kind: worksite.SafetyUnsafeEnter},
		worksite.SecurityResponse{At: time.Second, Kind: worksite.ResponseChannelHop, Detail: "ch 3 -> 7"},
	}
	for _, e := range events {
		b, err := Marshal(e)
		if err != nil {
			t.Fatalf("Marshal(%T): %v", e, err)
		}
		if bytes.ContainsRune(b, '\n') {
			t.Fatalf("Marshal(%T) contains a newline: %q", e, b)
		}
		var line struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatalf("Marshal(%T) is not a JSON object: %v", e, err)
		}
		if line.Event != e.EventKind() {
			t.Fatalf("Marshal(%T).event = %q, want %q", e, line.Event, e.EventKind())
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line.Data, want) {
			t.Fatalf("Marshal(%T).data = %s, want %s", e, line.Data, want)
		}
	}
}

// TestObserverFansInAllEventTypes: the adapter forwards every event type to
// the single callback, in publication order.
func TestObserverFansInAllEventTypes(t *testing.T) {
	var kinds []string
	obs := Observer(func(e worksite.Event) { kinds = append(kinds, e.EventKind()) })
	obs.OnTick(worksite.TickSnapshot{})
	obs.OnAlert(worksite.AlertRaised{})
	obs.OnAttackPhase(worksite.AttackPhase{})
	obs.OnSecurityResponse(worksite.SecurityResponse{})
	obs.OnModeChange(worksite.ModeChange{})
	obs.OnMissionPhase(worksite.MissionPhase{})
	obs.OnSafetyEvent(worksite.SafetyEvent{})
	want := []string{"tick", "alert", "attack-phase", "security-response",
		"mode-change", "mission-phase", "safety"}
	if len(kinds) != len(want) {
		t.Fatalf("observer forwarded %d events, want %d: %v", len(kinds), len(want), kinds)
	}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("event %d kind = %q, want %q (all: %v)", i, kinds[i], k, kinds)
		}
	}
}

// TestWriterLinesMatchMarshal: the buffered Writer emits exactly one line per
// event, each byte-identical to Marshal of the same event.
func TestWriterLinesMatchMarshal(t *testing.T) {
	events := []worksite.Event{
		worksite.ModeChange{At: time.Second, From: "normal", To: "alarmed"},
		worksite.AttackPhase{At: 2 * time.Second, Attack: "rf-jam", Active: true},
		worksite.AttackPhase{At: 3 * time.Second, Attack: "rf-jam", Active: false},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		w.encode(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != len(events) {
		t.Fatalf("writer emitted %d lines, want %d:\n%s", len(lines), len(events), buf.String())
	}
	for i, e := range events {
		want, err := Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if lines[i] != string(want) {
			t.Fatalf("line %d = %s, want %s", i, lines[i], want)
		}
	}
}

// TestWriterFlushIdempotent: repeated flushes after a clean flush are no-ops
// and emit nothing new.
func TestWriterFlushIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.encode(worksite.ModeChange{From: "a", To: "b"})
	if err := w.Flush(); err != nil {
		t.Fatalf("first Flush: %v", err)
	}
	n := buf.Len()
	if err := w.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if buf.Len() != n {
		t.Fatalf("second Flush wrote %d extra bytes", buf.Len()-n)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("sink gone") }

// TestWriterLatchesError: a failing sink latches the first error; later
// encodes are dropped and Flush/Err surface the latched error.
func TestWriterLatchesError(t *testing.T) {
	w := NewWriter(errWriter{})
	// Overflow the bufio buffer so the underlying write error fires.
	for i := 0; i < 10000; i++ {
		w.encode(worksite.MissionPhase{Phase: "to-landing", Detail: strings.Repeat("x", 64)})
	}
	if w.Err() == nil {
		t.Fatal("Err() = nil after writing through a failing sink")
	}
	if err := w.Flush(); err == nil || !strings.Contains(err.Error(), "sink gone") {
		t.Fatalf("Flush = %v, want latched sink error", err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("error did not stay latched across Flush calls")
	}
}

// stdLine is the reference encoding every trace line must match byte for
// byte.
func stdLine(t *testing.T, e worksite.Event) []byte {
	t.Helper()
	b, err := json.Marshal(Line{Event: e.EventKind(), Data: e})
	if err != nil {
		t.Fatalf("json.Marshal(%T): %v", e, err)
	}
	return b
}

// checkTick asserts appendTickLine's contract for one tick: it either
// declines (ok=false) or appends exactly json.Marshal(Line{...})'s bytes after
// dst's existing contents. It reports ok.
func checkTick(t *testing.T, tick worksite.TickSnapshot) bool {
	t.Helper()
	const prefix = "prefix"
	got, ok := appendTickLine([]byte(prefix), &tick)
	if !ok {
		return false
	}
	want, err := json.Marshal(Line{Event: tick.EventKind(), Data: tick})
	if err != nil {
		t.Fatalf("fast encoder accepted a tick encoding/json rejects (%v): %+v", err, tick)
	}
	if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("fast encoder diverges from encoding/json on %+v:\nfast: %s\nstd:  %s", tick, got, want)
	}
	return true
}

// TestTickEncoderDifferential pins appendTickLine against encoding/json on
// the float and string edges, and pins which of them the fast path covers.
func TestTickEncoderDifferential(t *testing.T) {
	base := worksite.TickSnapshot{N: 7, At: 3500 * time.Millisecond, Mission: "to-harvest", Mode: "normal",
		TruePos: geo.V(61.25, 100), BelievedPos: geo.V(61.3, 99.98), NavErrM: 0.054, MinWorkerDistM: -1,
		Unsafe: true, Stopped: true, LogsDelivered: 3, Collisions: 1, UnsafeEpisodes: 2, Alerts: 12}
	floats := []struct {
		f  float64
		ok bool
	}{
		{0, true}, {math.Copysign(0, -1), true}, {1e-6, true}, {1e-7, true}, {-1e-7, true},
		{1e20, true}, {1e21, true}, {-1e21, true}, {5e-324, true}, {math.MaxFloat64, true},
		{-math.MaxFloat64, true}, {1e-9, true}, {123.456789012345, true},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	}
	for _, c := range floats {
		for field := 0; field < 6; field++ {
			tick := base
			*[]*float64{&tick.TruePos.X, &tick.TruePos.Y, &tick.BelievedPos.X,
				&tick.BelievedPos.Y, &tick.NavErrM, &tick.MinWorkerDistM}[field] = c.f
			if ok := checkTick(t, tick); ok != c.ok {
				t.Errorf("float %v in field %d: fast path ok=%v, want %v", c.f, field, ok, c.ok)
			}
		}
	}
	strs := []struct {
		s  string
		ok bool
	}{
		{"", true}, {"to-landing", true}, {"<", false}, {">", false}, {"&", false},
		{`"`, false}, {`\`, false}, {"\x01", false}, {"\x7f", false}, {"caf\u00e9", false},
		{"\xff", false},
	}
	for _, c := range strs {
		for _, tick := range []worksite.TickSnapshot{
			{Mission: c.s, Mode: "normal"}, {Mission: "loading", Mode: c.s},
		} {
			if ok := checkTick(t, tick); ok != c.ok {
				t.Errorf("string %q: fast path ok=%v, want %v", c.s, ok, c.ok)
			}
		}
	}
	ints := worksite.TickSnapshot{N: math.MinInt, At: math.MaxInt64, LogsDelivered: math.MaxInt,
		Collisions: -1, UnsafeEpisodes: 0, Alerts: math.MinInt}
	if !checkTick(t, ints) || !checkTick(t, worksite.TickSnapshot{}) {
		t.Error("fast path declined a tick with plain values")
	}
}

// FuzzTraceTick drives appendTickLine with arbitrary field values: every
// tick it accepts must encode to exactly json.Marshal(Line{...})'s bytes.
func FuzzTraceTick(f *testing.F) {
	f.Add(7, int64(3500000000), "to-harvest", "normal", 61.25, 100.0, 61.3, 99.98, 0.054, -1.0,
		true, false, true, 3, 1, 2, 12)
	f.Add(-1, int64(-1), "a<b", "caf\u00e9", 1e-7, 1e21, -0.0, 5e-324, 1e300, 0.0,
		false, true, false, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, n int, at int64, mission, mode string, tx, ty, bx, by, navErr, minDist float64,
		unsafe, colliding, stopped bool, logs, collisions, episodes, alerts int) {
		checkTick(t, worksite.TickSnapshot{N: n, At: time.Duration(at), Mission: mission, Mode: mode,
			TruePos: geo.V(tx, ty), BelievedPos: geo.V(bx, by), NavErrM: navErr, MinWorkerDistM: minDist,
			Unsafe: unsafe, Colliding: colliding, Stopped: stopped, LogsDelivered: logs,
			Collisions: collisions, UnsafeEpisodes: episodes, Alerts: alerts})
	})
}

// TestMarshalTickAllocs: a tick line is encoded on the stack, so Marshal's
// only allocation is the exact-size line it returns.
func TestMarshalTickAllocs(t *testing.T) {
	var e worksite.Event = worksite.TickSnapshot{N: 1234567, At: 617 * time.Second, Mission: "to-landing",
		Mode: "cautious", TruePos: geo.V(-123.45678901234567, 98765.4321098765),
		BelievedPos: geo.V(-123.45678901234, 98765.43210987), NavErrM: 1.2345678901234567e-7,
		MinWorkerDistM: 12345.678901234567, LogsDelivered: math.MaxInt32, Collisions: math.MaxInt32,
		UnsafeEpisodes: math.MaxInt32, Alerts: math.MaxInt32}
	// AllocsPerRun truncates its mean to an integer, so all calls are one run
	// and the total must equal the call count exactly.
	const calls = 100
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < calls; i++ {
			if _, err := Marshal(e); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != calls {
		t.Fatalf("%d Marshal(tick) calls made %v allocs, want exactly %d", calls, allocs, calls)
	}
}

// TestCatalogTraceIdentity runs every catalog scenario under both profiles
// and checks every event line against encoding/json: Marshal must return
// json.Marshal(Line{...}) exactly, every tick must take the fast path, and a
// Writer must emit those lines, each followed by a newline.
func TestCatalogTraceIdentity(t *testing.T) {
	const (
		seed    = 1
		horizon = 4 * time.Minute
	)
	events := 0
	for _, name := range scenario.List() {
		for _, profName := range scenario.Profiles() {
			spec, err := scenario.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := scenario.ResolveProfile(profName)
			if err != nil {
				t.Fatal(err)
			}
			sess, _, err := scenario.Build(spec.WithProfile(prof), seed, horizon)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", name, profName, err)
			}
			var trace, want bytes.Buffer
			w := NewWriter(&trace)
			sess.Subscribe(w.Observer())
			sess.Subscribe(Observer(func(e worksite.Event) {
				got, err := Marshal(e)
				if err != nil {
					t.Fatalf("%s/%s: Marshal(%T): %v", name, profName, e, err)
				}
				if std := stdLine(t, e); !bytes.Equal(got, std) {
					t.Fatalf("%s/%s: Marshal(%T) diverges from encoding/json:\ngot:  %s\nwant: %s",
						name, profName, e, got, std)
				}
				if tick, ok := e.(worksite.TickSnapshot); ok {
					if _, ok := appendTickLine(nil, &tick); !ok {
						t.Errorf("%s/%s: tick %d fell back to encoding/json", name, profName, tick.N)
					}
				}
				want.Write(got)
				want.WriteByte('\n')
				events++
			}))
			if _, err := sess.Run(context.Background(), horizon); err != nil {
				t.Fatalf("%s/%s: run: %v", name, profName, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(trace.Bytes(), want.Bytes()) {
				t.Fatalf("%s/%s: Writer output (%d bytes) differs from the Marshal lines (%d bytes)",
					name, profName, trace.Len(), want.Len())
			}
		}
	}
	t.Logf("%d events byte-identical to encoding/json", events)
}
