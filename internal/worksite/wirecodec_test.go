package worksite

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/sensors"
)

// checkAgainstStdlib runs one input through the fast parser and asserts its
// contract: whenever the fast path accepts, encoding/json must accept the
// same bytes and produce an identical message. (The fast path rejecting is
// always fine — the caller falls back to the stdlib.)
func checkAgainstStdlib(t *testing.T, payload []byte) {
	t.Helper()
	intern := make(internTable)
	var fast wireMsg
	ok := fastParseWireMsg(payload, &fast, intern)

	var std wireMsg
	err := json.Unmarshal(payload, &std)
	if !ok {
		return
	}
	if err != nil {
		t.Fatalf("fast path accepted input the stdlib rejects (%v): %q", err, payload)
	}
	// nil-vs-empty detections is the one representational difference the
	// scratch reuse introduces; the consumers only look at len.
	if len(fast.Detections) == 0 {
		fast.Detections = nil
	}
	if len(std.Detections) == 0 {
		std.Detections = nil
	}
	if !reflect.DeepEqual(fast, std) {
		t.Fatalf("fast path diverges from stdlib on %q:\nfast: %+v\nstd:  %+v", payload, fast, std)
	}
}

// TestWireCodecDifferential feeds the fast parser every message shape the
// worksite actually sends (marshalled by the same encoder production uses)
// plus edge and hostile inputs, checking equivalence with encoding/json.
func TestWireCodecDifferential(t *testing.T) {
	msgs := []wireMsg{
		{},
		{Type: "heartbeat", From: "coordinator"},
		{Type: "status", From: "forwarder-1", PosX: 123.456789012345, PosY: -0.000123,
			State: "driving", GNSSOK: true, GNSSWhy: ""},
		{Type: "status", From: "forwarder-1", PosX: 1e21, PosY: -1e-7,
			GNSSOK: false, GNSSWhy: "position jump exceeds max speed"},
		{Type: "command", From: "coordinator", Command: "clear-stops", Seq: 18446744073709551615},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
			{TargetID: "worker-1", Pos: geo.V(200.123456789, 199.55), Confidence: 0.92, Sensor: "aerial-camera"},
			{TargetID: "", Pos: geo.V(-3.5, 0), Confidence: 0.31, Sensor: "camera", FalsePositive: true},
		}},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{}},
	}
	for _, m := range msgs {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstStdlib(t, data)

		// The fast path must accept its own production grammar: a rejected
		// self-encoded message would silently fall back every tick.
		intern := make(internTable)
		var fast wireMsg
		if !fastParseWireMsg(data, &fast, intern) {
			t.Fatalf("fast path rejected self-encoded message %q", data)
		}
	}

	edgeInputs := []string{
		``, `{}`, `null`, `true`, `42`, `"str"`, `[]`,
		`{"type":"heartbeat"`,                             // truncated
		`{"type":"heartbeat",}`,                           // trailing comma
		`{"type":"heartbeat"} garbage`,                    // trailing bytes
		`{"type": "heartbeat" , "from" : "coordinator" }`, // whitespace
		`{"TYPE":"heartbeat"}`,                            // case-insensitive stdlib match
		`{"type":"he\u0061rtbeat"}`,                       // escape
		`{"type":"tick\ttock"}`,                           // raw control char (invalid JSON)
		`{"unknown":{"nested":[1,2,{"x":3}]},"type":"x"}`, // unknown keys
		`{"seq":-1}`, `{"seq":1.5}`, `{"seq":1e3}`,        // non-uint seq forms
		`{"posX":0.1e+5,"posY":-0}`,                   // exotic but valid numbers
		`{"posX":00.1}`, `{"posX":.5}`, `{"posX":5.}`, // invalid numbers
		`{"posX":0x1p3}`, `{"posX":Inf}`, `{"posX":NaN}`, // ParseFloat-only forms
		`{"gnssOk":1}`, `{"gnssOk":"true"}`, // non-bool bools
		`{"detections":null}`,                                // null array
		`{"detections":[null]}`,                              // null element
		`{"detections":[{"pos":{"x":1,"y":2,"z":3}}]}`,       // unknown vec key
		`{"detections":[{"targetId":"w","pos":{"x":1}}]}`,    // partial vec
		`{"type":"detections","detections":[]}`,              // empty array
		`{"type":"a","type":"b"}`,                            // duplicate key
		`{"detections":[{"confidence":1},{"confidence":2}]}`, // multiple elements
		`{"type":"x","detections":[{"falsePositive":true}],"command":"pause"}`,
		"{\"type\":\"caf\xc3\xa9\"}",                // non-ASCII UTF-8
		"{\"type\":\"bad\xff\xfe\"}",                // invalid UTF-8 (stdlib coerces; fast must reject)
		`{"posX":123456789012345678901234567890.5}`, // huge mantissa
		`{"seq":18446744073709551616}`,              // uint64 overflow
	}
	for _, in := range edgeInputs {
		checkAgainstStdlib(t, []byte(in))
	}
}

// TestWireCodecScratchReuse exercises the production calling pattern: one
// scratch message decoded repeatedly with interning, ensuring a later decode
// fully overwrites an earlier one.
func TestWireCodecScratchReuse(t *testing.T) {
	intern := make(internTable)
	var msg wireMsg

	decode := func(m wireMsg) wireMsg {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		msg = wireMsg{Detections: msg.Detections[:0]}
		if !fastParseWireMsg(data, &msg, intern) {
			t.Fatalf("fast path rejected %q", data)
		}
		return msg
	}

	full := wireMsg{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
		{TargetID: "worker-2", Pos: geo.V(1, 2), Confidence: 0.5, Sensor: "aerial-camera"},
	}}
	got := decode(full)
	if got.Type != "detections" || len(got.Detections) != 1 || got.Detections[0].TargetID != "worker-2" {
		t.Fatalf("first decode wrong: %+v", got)
	}
	first := got.Detections[0]

	got = decode(wireMsg{Type: "heartbeat", From: "coordinator"})
	if got.Type != "heartbeat" || got.From != "coordinator" || len(got.Detections) != 0 {
		t.Fatalf("scratch not fully overwritten: %+v", got)
	}

	// Interning must hand back the same string backing across decodes.
	got = decode(full)
	if got.Detections[0].TargetID != first.TargetID || got.Detections[0].Sensor != first.Sensor {
		t.Fatalf("re-decode differs: %+v", got.Detections[0])
	}
}

// FuzzWireCodec drives the differential check with arbitrary bytes: the fast
// parser must never accept anything encoding/json rejects, nor produce a
// different message for anything both accept.
func FuzzWireCodec(f *testing.F) {
	seeds := []string{
		`{"type":"heartbeat","from":"coordinator"}`,
		`{"type":"status","from":"forwarder-1","posX":204.35,"posY":199.9,"state":"driving","gnssOk":true}`,
		`{"type":"detections","from":"drone-1","detections":[{"targetId":"worker-1","pos":{"x":1.5,"y":-2},"confidence":0.9,"sensor":"aerial-camera","falsePositive":false}]}`,
		`{"type":"command","from":"attacker","command":"clear-stops","seq":7}`,
		`{"posX":1e308,"posY":-1e-308}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		intern := make(internTable)
		var fast wireMsg
		ok := fastParseWireMsg(data, &fast, intern)
		if !ok {
			return
		}
		var std wireMsg
		if err := json.Unmarshal(data, &std); err != nil {
			t.Fatalf("fast path accepted input the stdlib rejects (%v): %q", err, data)
		}
		if len(fast.Detections) == 0 {
			fast.Detections = nil
		}
		if len(std.Detections) == 0 {
			std.Detections = nil
		}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("divergence on %q:\nfast: %+v\nstd:  %+v", data, fast, std)
		}
	})
}

// TestFallbackDecodeDoesNotLeakScratch locks the fix for a scratch-reuse
// bug: when a message falls back to encoding/json (here forced via an escape
// sequence), the decode must start from a zero message — the stdlib merges
// into within-capacity slice elements without zeroing, so decoding into the
// reused scratch would leak fields of an earlier detections message into the
// new one.
func TestFallbackDecodeDoesNotLeakScratch(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	full := []byte(`{"type":"detections","from":"drone-1","detections":` +
		`[{"targetId":"worker-1","pos":{"x":1,"y":2},"confidence":0.92,"sensor":"aerial-camera","falsePositive":true}]}`)
	site.handleAppPayload(NodeForwarder, NodeDrone, full)
	if len(site.droneDets) != 1 || site.droneDets[0].Confidence != 0.92 {
		t.Fatalf("fast-path decode wrong: %+v", site.droneDets)
	}

	// The \u0041 escape forces the stdlib fallback; every omitted field must
	// be zero.
	sparse := []byte(`{"type":"detections","from":"drone-1","detections":[{"targetId":"x\u0041"}]}`)
	site.handleAppPayload(NodeForwarder, NodeDrone, sparse)
	got := site.droneDets
	if len(got) != 1 || got[0].TargetID != "xA" {
		t.Fatalf("fallback decode wrong: %+v", got)
	}
	if got[0].Confidence != 0 || got[0].Sensor != "" || got[0].FalsePositive {
		t.Fatalf("fallback decode leaked fields from the previous message: %+v", got[0])
	}
}

// checkWireEncode asserts appendWireMsg's contract for one message: it
// either declines (ok=false) or appends exactly json.Marshal's bytes after
// dst's existing contents, leaving them untouched. It reports ok.
func checkWireEncode(t *testing.T, m wireMsg) bool {
	t.Helper()
	const prefix = "prefix"
	got, ok := appendWireMsg([]byte(prefix), &m)
	if !ok {
		return false
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("fast encoder accepted a message encoding/json rejects (%v): %+v", err, m)
	}
	if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("fast encoder diverges from encoding/json on %+v:\nfast: %s\nstd:  %s", m, got, want)
	}
	return true
}

// TestWireEncodeDifferential pins appendWireMsg against encoding/json on the
// float, string and omitempty edges, and pins which of them the fast path
// covers: declining a value the engine sends would silently fall back every
// tick, and accepting one it cannot encode would change the wire bytes.
func TestWireEncodeDifferential(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []struct {
		f  float64
		ok bool
	}{
		{0, true}, {negZero, true}, {1e-6, true}, {1e-7, true}, {-1e-7, true},
		{1e20, true}, {1e21, true}, {-1e21, true}, {5e-324, true},
		{math.MaxFloat64, true}, {123.456789012345, true}, {-3.5, true}, {1e-9, true},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	}
	for _, c := range floats {
		msgs := []wireMsg{
			{Type: "status", From: "forwarder-1", PosX: c.f, PosY: -c.f},
			{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
				{TargetID: "worker-1", Pos: geo.V(c.f, 1), Confidence: c.f, Sensor: "camera"},
			}},
		}
		for _, m := range msgs {
			if ok := checkWireEncode(t, m); ok != c.ok {
				t.Errorf("float %v: fast path ok=%v, want %v", c.f, ok, c.ok)
			}
		}
	}

	strs := []struct {
		s  string
		ok bool
	}{
		{"", true}, {"position jump exceeds max speed", true}, {"a~ !#$%'()*+,-./:;=?@[]^_`{|}", true},
		{"<", false}, {">", false}, {"&", false}, {`"`, false}, {`\`, false},
		{"tick\ttock", false}, {"\x00", false}, {"\x1f", false}, {"\x7f", false},
		{"caf\u00e9", false}, {"bad\xff\xfe", false}, {"\u2028", false},
	}
	for _, c := range strs {
		msgs := []wireMsg{
			{Type: c.s, From: "coordinator"},
			{Type: "status", From: c.s},
			{Type: "status", From: "forwarder-1", State: c.s, GNSSWhy: c.s},
			{Type: "command", From: "coordinator", Command: c.s},
			{Type: "detections", From: "drone-1", Detections: []sensors.Detection{
				{TargetID: c.s, Sensor: "camera"}, {TargetID: "worker-2", Sensor: c.s},
			}},
		}
		for _, m := range msgs {
			if ok := checkWireEncode(t, m); ok != c.ok {
				t.Errorf("string %q: fast path ok=%v, want %v (message %+v)", c.s, ok, c.ok, m)
			}
		}
	}

	others := []wireMsg{
		{},
		{Type: "detections", From: "drone-1", Detections: nil},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{}},
		{Type: "heartbeat", From: "coordinator", Seq: 1},
		{Type: "heartbeat", From: "coordinator", Seq: math.MaxUint64},
		{Type: "status", From: "forwarder-1", GNSSOK: true},
		{Type: "detections", From: "drone-1", Detections: []sensors.Detection{{FalsePositive: true}, {}}},
	}
	for _, m := range others {
		if !checkWireEncode(t, m) {
			t.Errorf("fast path declined %+v", m)
		}
	}
}

// FuzzWireEncode drives appendWireMsg with arbitrary field values: every
// message it accepts must encode to exactly json.Marshal's bytes.
func FuzzWireEncode(f *testing.F) {
	f.Add("detections", "drone-1", uint64(0), 204.35, 199.9, "driving", true, "", "",
		uint8(2), "worker-1", 1.5, -2.0, 0.92, "aerial-camera", false)
	f.Add("status", "forwarder-1", uint64(7), -1e-7, 1e21, "", false, "jump <5m>", "clear-stops",
		uint8(0), "", 0.0, 0.0, 0.0, "", true)
	f.Fuzz(func(t *testing.T, typ, from string, seq uint64, posX, posY float64,
		state string, gnssOK bool, gnssWhy, command string,
		nDets uint8, target string, x, y, conf float64, sensor string, falsePositive bool) {
		m := wireMsg{Type: typ, From: from, Seq: seq, PosX: posX, PosY: posY, State: state,
			GNSSOK: gnssOK, GNSSWhy: gnssWhy, Command: command}
		switch n := int(nDets % 4); n {
		case 0: // nil
		case 1:
			m.Detections = []sensors.Detection{}
		default:
			for i := 1; i < n; i++ {
				m.Detections = append(m.Detections, sensors.Detection{TargetID: target,
					Pos: geo.V(x, y*float64(i)), Confidence: conf, Sensor: sensor, FalsePositive: falsePositive})
			}
		}
		checkWireEncode(t, m)
	})
}
