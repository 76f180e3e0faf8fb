package worksite

import (
	"strconv"

	"repro/internal/jsonenc"
	"repro/internal/sensors"
)

// Wire-message codec: an encoder only.
//
// Every application message on the worksite network is a JSON-encoded
// wireMsg, carrying exactly the bytes json.Marshal would produce: the drone
// streams one detections message per control tick, so encoding is squarely
// on the simulation's hot path.
//
// appendWireMsg emits those bytes without reflection for the messages the
// engine actually sends (plain ASCII strings, finite numbers) and reports
// false for anything else, which the sender then encodes with encoding/json.
// The byte count is what netsim charges airtime for, so the two encoders
// must never differ; FuzzWireEncode and TestWireEncodeDifferential lock that.
//
// There is no hand-written decoder. The receiver never re-parses its own
// site's traffic: decoding is a pure function of the bytes, so a plaintext
// byte-equal to what the sender last encoded on that link is handed over as
// canon of the sent message (see (*Site).send and sentSlot). Every other
// payload (injected, replayed, tampered or reordered frames) is decoded by
// encoding/json. The same two tests lock decode(encode(m)) == canon(m) for
// every message appendWireMsg accepts.

// appendWireMsg appends json.Marshal(m) to dst. It returns ok=false, with dst
// in an unspecified state past its original length, when m holds a string
// jsonenc.AppendString does not cover or a NaN or infinite number; the caller
// then encodes m with encoding/json instead. Fields follow the struct order
// and omitempty rules of wireMsg: zero numbers (including -0), false, "" and
// empty or nil detections are left out.
//
//worksim:hotpath
func appendWireMsg(dst []byte, m *wireMsg) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"type":`...)
	dst, ok = jsonenc.AppendString(dst, m.Type, ok)
	dst = append(dst, `,"from":`...)
	dst, ok = jsonenc.AppendString(dst, m.From, ok)
	if m.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, m.Seq, 10)
	}
	if m.PosX != 0 {
		dst = append(dst, `,"posX":`...)
		dst, ok = jsonenc.AppendFloat(dst, m.PosX, ok)
	}
	if m.PosY != 0 {
		dst = append(dst, `,"posY":`...)
		dst, ok = jsonenc.AppendFloat(dst, m.PosY, ok)
	}
	if m.State != "" {
		dst = append(dst, `,"state":`...)
		dst, ok = jsonenc.AppendString(dst, m.State, ok)
	}
	if m.GNSSOK {
		dst = append(dst, `,"gnssOk":true`...)
	}
	if m.GNSSWhy != "" {
		dst = append(dst, `,"gnssWhy":`...)
		dst, ok = jsonenc.AppendString(dst, m.GNSSWhy, ok)
	}
	if len(m.Detections) > 0 {
		dst = append(dst, `,"detections":[`...)
		for i := range m.Detections {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, ok = appendDetection(dst, &m.Detections[i], ok)
		}
		dst = append(dst, ']')
	}
	if m.Command != "" {
		dst = append(dst, `,"command":`...)
		dst, ok = jsonenc.AppendString(dst, m.Command, ok)
	}
	dst = append(dst, '}')
	return dst, ok
}

//worksim:hotpath
func appendDetection(dst []byte, d *sensors.Detection, ok bool) ([]byte, bool) {
	dst = append(dst, `{"targetId":`...)
	dst, ok = jsonenc.AppendString(dst, d.TargetID, ok)
	dst = append(dst, `,"pos":{"x":`...)
	dst, ok = jsonenc.AppendFloat(dst, d.Pos.X, ok)
	dst = append(dst, `,"y":`...)
	dst, ok = jsonenc.AppendFloat(dst, d.Pos.Y, ok)
	dst = append(dst, `},"confidence":`...)
	dst, ok = jsonenc.AppendFloat(dst, d.Confidence, ok)
	dst = append(dst, `,"sensor":`...)
	dst, ok = jsonenc.AppendString(dst, d.Sensor, ok)
	dst = append(dst, `,"falsePositive":`...)
	dst = jsonenc.AppendBool(dst, d.FalsePositive)
	dst = append(dst, '}')
	return dst, ok
}

// canon returns the message encoding/json decodes from appendWireMsg's bytes
// for m. omitempty leaves out a -0 PosX or PosY, which therefore decodes as
// +0, and empty detections, which decode as nil. Every other field survives
// the round trip exactly, a detection's -0 coordinates included.
func canon(m wireMsg) wireMsg {
	if m.PosX == 0 {
		m.PosX = 0
	}
	if m.PosY == 0 {
		m.PosY = 0
	}
	if len(m.Detections) == 0 {
		m.Detections = nil
	}
	return m
}
