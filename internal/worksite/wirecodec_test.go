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

// TestFallbackDecodeDoesNotLeakScratch locks the fix for a scratch-reuse
// bug. encoding/json is the only decoder, and it merges into within-capacity
// slice elements without zeroing them, so every decode must start from a
// zero message: decoding into reused storage would leak fields of an earlier
// detections message into the new one.
func TestFallbackDecodeDoesNotLeakScratch(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	full := []byte(`{"type":"detections","from":"drone-1","detections":` +
		`[{"targetId":"worker-1","pos":{"x":1,"y":2},"confidence":0.92,"sensor":"aerial-camera","falsePositive":true}]}`)
	site.handleAppPayload(NodeForwarder, NodeDrone, full)
	if len(site.droneDets) != 1 || site.droneDets[0].Confidence != 0.92 {
		t.Fatalf("first decode wrong: %+v", site.droneDets)
	}

	// Every field the sparse message omits must decode as zero.
	sparse := []byte(`{"type":"detections","from":"drone-1","detections":[{"targetId":"x\u0041"}]}`)
	site.handleAppPayload(NodeForwarder, NodeDrone, sparse)
	got := site.droneDets
	if len(got) != 1 || got[0].TargetID != "xA" {
		t.Fatalf("second decode wrong: %+v", got)
	}
	if got[0].Confidence != 0 || got[0].Sensor != "" || got[0].FalsePositive {
		t.Fatalf("decode leaked fields from the previous message: %+v", got[0])
	}
}

// TestLastSentNeedsEqualBytes pins the condition of the last-sent handoff:
// the receiver takes the slot only for a plaintext byte-equal to what was
// sent on that link. A receiver that skipped the compare would dispatch the
// sent message for any payload on the link.
func TestLastSentNeedsEqualBytes(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	detsMsg := func(target string, x float64) wireMsg {
		return wireMsg{Type: "detections", From: string(NodeDrone), Detections: []sensors.Detection{
			{TargetID: target, Pos: geo.V(x, 2), Confidence: 0.9, Sensor: "aerial-camera"},
		}}
	}
	a, b := detsMsg("worker-1", 1), detsMsg("worker-2", 3)
	site.send(NodeDrone, NodeForwarder, a)

	bBytes, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	site.handleAppPayload(NodeForwarder, NodeDrone, bBytes)
	if !reflect.DeepEqual(site.droneDets, b.Detections) {
		t.Fatalf("payload B on the drone link dispatched %+v, want B %+v", site.droneDets, b.Detections)
	}

	aBytes, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	site.handleAppPayload(NodeForwarder, NodeDrone, aBytes)
	if !reflect.DeepEqual(site.droneDets, a.Detections) {
		t.Fatalf("payload A on the drone link dispatched %+v, want A %+v", site.droneDets, a.Detections)
	}
}

// TestInjectionAfterHeartbeatIsApplied delivers the command-injection
// attack's forged clear-stops bytes, claiming the coordinator, right after a
// real heartbeat on that link. On the unsecured stack the forgery must still
// reach the forwarder's command handler: it misses the slot and is decoded.
func TestInjectionAfterHeartbeatIsApplied(t *testing.T) {
	site, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	site.send(NodeCoordinator, NodeForwarder, wireMsg{Type: "heartbeat", From: string(NodeCoordinator)})
	before := site.metrics.CommandsApplied
	site.handleAppPayload(NodeForwarder, NodeCoordinator,
		[]byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`))
	if got := site.metrics.CommandsApplied; got != before+1 {
		t.Fatalf("CommandsApplied = %d after the injected clear-stops, want %d", got, before+1)
	}
}

// sameWireMsg reports whether a and b are identical, comparing floats by
// their bits so that -0 and +0 differ.
func sameWireMsg(a, b wireMsg) bool {
	bits := math.Float64bits
	if bits(a.PosX) != bits(b.PosX) || bits(a.PosY) != bits(b.PosY) || len(a.Detections) != len(b.Detections) {
		return false
	}
	for i := range a.Detections {
		da, db := a.Detections[i], b.Detections[i]
		if bits(da.Pos.X) != bits(db.Pos.X) || bits(da.Pos.Y) != bits(db.Pos.Y) ||
			bits(da.Confidence) != bits(db.Confidence) {
			return false
		}
	}
	return reflect.DeepEqual(a, b)
}

// checkWireEncode asserts appendWireMsg's contract for one message: it
// either declines (ok=false) or appends exactly json.Marshal's bytes after
// dst's existing contents, leaving them untouched, and encoding/json decodes
// those bytes to exactly canon(m), sign bits included. The last-sent handoff
// rests on that round trip. It reports ok.
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
	var dec wireMsg
	if err := json.Unmarshal(want, &dec); err != nil {
		t.Fatalf("encoding/json rejects its own bytes (%v): %s", err, want)
	}
	if c := canon(m); !sameWireMsg(dec, c) {
		t.Fatalf("decode(encode(m)) != canon(m) for %s:\ndecoded: %+v\ncanon:   %+v", want, dec, c)
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
// message it accepts must encode to exactly json.Marshal's bytes, which must
// decode to canon of the message.
func FuzzWireEncode(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("detections", "drone-1", uint64(0), 204.35, 199.9, "driving", true, "", "",
		uint8(2), "worker-1", 1.5, -2.0, 0.92, "aerial-camera", false)
	f.Add("status", "forwarder-1", uint64(7), -1e-7, 1e21, "", false, "jump <5m>", "clear-stops",
		uint8(0), "", 0.0, 0.0, 0.0, "", true)
	// -0 (dropped at the top level, kept inside a detection), subnormals, and
	// both sides of the 1e-6 and 1e21 switches between plain and exponent
	// notation.
	f.Add("status", "forwarder-1", uint64(1), negZero, 5e-324, "", false, "", "",
		uint8(3), "worker-1", negZero, negZero, negZero, "camera", false)
	f.Add("detections", "drone-1", uint64(0), 1e-6, 9.999999999999999e-7, "", false, "", "",
		uint8(3), "worker-2", 1e21, 9.999999999999999e20, 5e-324, "aerial-camera", true)
	f.Add("status", "forwarder-1", uint64(0), -1e21, -9.999999999999999e20, "", true, "", "",
		uint8(2), "", -1e-6, -9.999999999999999e-7, 2.2250738585072014e-308, "", false)
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
