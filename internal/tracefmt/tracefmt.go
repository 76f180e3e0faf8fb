// Package tracefmt is the JSON-lines wire encoding of the typed event
// stream: every event a session publishes becomes one line of the form
//
//	{"event": KIND, "data": {...}}
//
// in simulation order. The format is shared verbatim by the two transports
// that expose live event feeds — `worksite-sim -trace` writes the lines to a
// file or stdout, and the worksimd daemon replays them as Server-Sent-Event
// payloads — so the schema can never fork between the CLI and the service.
//
// A line is exactly json.Marshal(Line{...}). Tick snapshots, nearly every
// line of a trace, are encoded without reflection by appendTickLine, which
// emits the same bytes; every other event kind, and any tick holding a value
// the fast encoder does not cover, goes through encoding/json.
package tracefmt

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/jsonenc"
	"repro/internal/worksite"
)

// Line is the wire envelope of one event.
type Line struct {
	Event string `json:"event"`
	Data  any    `json:"data"`
}

// Marshal encodes one event as a single JSON line without the trailing
// newline — the exact bytes a Writer emits for the same event, and the exact
// SSE data: payload the daemon streams.
func Marshal(e worksite.Event) ([]byte, error) {
	// The daemon keeps every line, so encode on the stack and return an
	// exact-size copy. A tick line is about 330 bytes; a longer one spills
	// to the heap and is still correct.
	var scratch [512]byte
	if b, ok := appendLine(scratch[:0], e); ok {
		return append([]byte(nil), b...), nil
	}
	return json.Marshal(Line{Event: e.EventKind(), Data: e})
}

// appendLine appends e's line without reflection, or reports false when e's
// kind or one of its values has no fast encoding.
func appendLine(dst []byte, e worksite.Event) ([]byte, bool) {
	if t, ok := e.(worksite.TickSnapshot); ok {
		return appendTickLine(dst, &t)
	}
	return dst, false
}

// appendTickLine appends json.Marshal(Line{Event: "tick", Data: *t}) to dst.
// It returns ok=false, with dst in an unspecified state past its original
// length, when t holds a string jsonenc.AppendString does not cover or a NaN
// or infinite number.
//
//worksim:hotpath
func appendTickLine(dst []byte, t *worksite.TickSnapshot) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"event":"tick","data":{"n":`...)
	dst = strconv.AppendInt(dst, int64(t.N), 10)
	dst = append(dst, `,"atNs":`...)
	dst = strconv.AppendInt(dst, int64(t.At), 10)
	dst = append(dst, `,"mission":`...)
	dst, ok = jsonenc.AppendString(dst, t.Mission, ok)
	dst = append(dst, `,"mode":`...)
	dst, ok = jsonenc.AppendString(dst, t.Mode, ok)
	dst = append(dst, `,"truePos":{"x":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.TruePos.X, ok)
	dst = append(dst, `,"y":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.TruePos.Y, ok)
	dst = append(dst, `},"believedPos":{"x":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.BelievedPos.X, ok)
	dst = append(dst, `,"y":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.BelievedPos.Y, ok)
	dst = append(dst, `},"navErrM":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.NavErrM, ok)
	dst = append(dst, `,"minWorkerDistM":`...)
	dst, ok = jsonenc.AppendFloat(dst, t.MinWorkerDistM, ok)
	dst = append(dst, `,"unsafe":`...)
	dst = jsonenc.AppendBool(dst, t.Unsafe)
	dst = append(dst, `,"colliding":`...)
	dst = jsonenc.AppendBool(dst, t.Colliding)
	dst = append(dst, `,"stopped":`...)
	dst = jsonenc.AppendBool(dst, t.Stopped)
	dst = append(dst, `,"logsDelivered":`...)
	dst = strconv.AppendInt(dst, int64(t.LogsDelivered), 10)
	dst = append(dst, `,"collisions":`...)
	dst = strconv.AppendInt(dst, int64(t.Collisions), 10)
	dst = append(dst, `,"unsafeEpisodes":`...)
	dst = strconv.AppendInt(dst, int64(t.UnsafeEpisodes), 10)
	dst = append(dst, `,"alerts":`...)
	dst = strconv.AppendInt(dst, int64(t.Alerts), 10)
	dst = append(dst, "}}"...)
	return dst, ok
}

// Observer adapts a per-event callback into a full worksite.Observer: every
// event type is forwarded to fn in publication order. It is the single
// fan-in point both trace transports subscribe with.
func Observer(fn func(worksite.Event)) worksite.Observer {
	return &worksite.ObserverFuncs{
		Tick:             func(e worksite.TickSnapshot) { fn(e) },
		Alert:            func(e worksite.AlertRaised) { fn(e) },
		AttackPhase:      func(e worksite.AttackPhase) { fn(e) },
		SecurityResponse: func(e worksite.SecurityResponse) { fn(e) },
		ModeChange:       func(e worksite.ModeChange) { fn(e) },
		MissionPhase:     func(e worksite.MissionPhase) { fn(e) },
		Safety:           func(e worksite.SafetyEvent) { fn(e) },
	}
}

// Writer streams events as JSON lines to an io.Writer through an internal
// buffer. Writes happen inside the simulation loop (observers run
// synchronously), so errors are latched rather than surfaced per event:
// check Err or the Flush result once the run ends.
//
// Flush is idempotent and must be called (directly or via Close) before the
// sink is read or the process exits — in particular on the cancellation
// path, where the buffered tail of the trace is the most diagnostic part. A
// flushed Writer never leaves a truncated line behind for events it
// observed.
type Writer struct {
	bw   *bufio.Writer
	enc  *json.Encoder
	line []byte // reused scratch for fast-encoded lines
	err  error
}

// NewWriter returns a Writer streaming JSON lines to w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Observer returns the observer to subscribe on a session: every published
// event becomes one buffered JSON line.
func (w *Writer) Observer() worksite.Observer {
	return Observer(func(e worksite.Event) { w.encode(e) })
}

// encode writes one event line, latching the first error.
func (w *Writer) encode(e worksite.Event) {
	if w.err != nil {
		return
	}
	if b, ok := appendLine(w.line[:0], e); ok {
		w.line = append(b, '\n')
		_, w.err = w.bw.Write(w.line)
		return
	}
	w.err = w.enc.Encode(Line{Event: e.EventKind(), Data: e})
}

// Flush drains the internal buffer to the sink and returns the first error
// seen by any write so far. Safe to call repeatedly; later calls after a
// clean flush are no-ops.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }
