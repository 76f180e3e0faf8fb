package worksite

import (
	"strconv"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/jsonenc"
	"repro/internal/sensors"
)

// Wire-message fast codec.
//
// Every application message on the worksite network is a JSON-encoded
// wireMsg, carrying exactly the bytes json.Marshal would produce: the drone
// streams one detections message per control tick, so both directions are
// squarely on the simulation's hot path.
//
// appendWireMsg emits those bytes without reflection for the messages the
// engine actually sends (plain ASCII strings, finite numbers) and reports
// false for anything else, which the sender then encodes with encoding/json.
// The byte count is what netsim charges airtime for, so the two encoders
// must never differ; FuzzWireEncode and TestWireEncodeDifferential lock that.
//
// fastParseWireMsg parses exactly the closed grammar encoding/json emits for
// wireMsg — ASCII strings without escapes, JSON numbers, the known key set —
// into a caller-owned message without allocating (strings are interned, the
// detections slice is reused). Anything outside that grammar (escape
// sequences, non-ASCII bytes, unknown keys, null, malformed input) makes it
// return false, and the caller falls back to encoding/json — so the fast
// path can only ever accept inputs the stdlib would accept, with identical
// results, and every divergent or hostile input is judged by the stdlib
// itself. TestWireCodecDifferential locks that equivalence.

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

// internTable deduplicates the small closed set of strings that ride the
// wire (message types, node names, states, sensor names, verdict reasons) so
// steady-state decoding performs zero string allocations.
type internTable map[string]string

//worksim:hotpath
func (t internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if v, ok := t[string(b)]; ok { // compiler-optimised: no conversion alloc
		return v
	}
	v := string(b)
	t[v] = v
	return v
}

// fastParseWireMsg parses payload into msg, returning false (with msg in an
// unspecified state) when the input falls outside the fast grammar. msg must
// be reset by the caller beforehand.
//
//worksim:hotpath
func fastParseWireMsg(payload []byte, msg *wireMsg, intern internTable) bool {
	p := wireParser{b: payload, intern: intern}
	if !p.parseTopLevel(msg) {
		return false
	}
	p.ws()
	return p.i == len(p.b) // trailing garbage: let the stdlib judge it
}

type wireParser struct {
	b      []byte
	i      int
	intern internTable
}

//worksim:hotpath
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

//worksim:hotpath
func (p *wireParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

//worksim:hotpath
func (p *wireParser) peek() (byte, bool) {
	if p.i < len(p.b) {
		return p.b[p.i], true
	}
	return 0, false
}

// parseString parses a JSON string containing only printable ASCII without
// escapes and returns the raw bytes between the quotes.
//
//worksim:hotpath
func (p *wireParser) parseString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false // escapes / control / non-ASCII: stdlib's call
		}
		p.i++
	}
	return nil, false
}

// parseNumberToken scans a JSON number token and validates it against the
// JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
//
//worksim:hotpath
func (p *wireParser) parseNumberToken() ([]byte, bool) {
	start := p.i
	i, b := p.i, p.b
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	p.i = i
	return b[start:i], true
}

//worksim:hotpath
func (p *wireParser) parseFloat() (float64, bool) {
	tok, ok := p.parseNumberToken()
	if !ok {
		return 0, false
	}
	// unsafe.String avoids a per-number []byte->string copy; ParseFloat does
	// not retain its argument, so the view never outlives tok.
	v, err := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

//worksim:hotpath
func (p *wireParser) parseUint() (uint64, bool) {
	tok, ok := p.parseNumberToken()
	if !ok {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false // fraction, exponent or sign: stdlib's call
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false // overflow: stdlib reports the precise error
		}
		v = v*10 + d
	}
	return v, true
}

//worksim:hotpath
func (p *wireParser) parseBool() (bool, bool) {
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if p.i+5 <= len(p.b) && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

//worksim:hotpath
func (p *wireParser) parseTopLevel(msg *wireMsg) bool {
	p.ws()
	if !p.eat('{') {
		return false
	}
	first := true
	for {
		p.ws()
		if p.eat('}') {
			return true
		}
		if !first && !p.eat(',') {
			return false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		if !p.parseTopValue(msg, key) {
			return false
		}
	}
}

//worksim:hotpath
func (p *wireParser) parseTopValue(msg *wireMsg, key []byte) bool {
	switch string(key) { // compiler-optimised: no conversion alloc
	case "type":
		return p.stringInto(&msg.Type)
	case "from":
		return p.stringInto(&msg.From)
	case "seq":
		v, ok := p.parseUint()
		msg.Seq = v
		return ok
	case "posX":
		v, ok := p.parseFloat()
		msg.PosX = v
		return ok
	case "posY":
		v, ok := p.parseFloat()
		msg.PosY = v
		return ok
	case "state":
		return p.stringInto(&msg.State)
	case "gnssOk":
		v, ok := p.parseBool()
		msg.GNSSOK = v
		return ok
	case "gnssWhy":
		return p.stringInto(&msg.GNSSWhy)
	case "command":
		return p.stringInto(&msg.Command)
	case "detections":
		return p.parseDetections(msg)
	default:
		return false // unknown key (or case variant): stdlib's call
	}
}

//worksim:hotpath
func (p *wireParser) stringInto(dst *string) bool {
	s, ok := p.parseString()
	if !ok {
		return false
	}
	*dst = p.intern.get(s)
	return true
}

//worksim:hotpath
func (p *wireParser) parseDetections(msg *wireMsg) bool {
	if !p.eat('[') {
		return false
	}
	dets := msg.Detections[:0] // a duplicate key replaces, like the stdlib
	p.ws()
	if p.eat(']') {
		msg.Detections = dets
		return true
	}
	for {
		var d sensors.Detection
		if !p.parseDetection(&d) {
			return false
		}
		dets = append(dets, d)
		p.ws()
		if p.eat(']') {
			msg.Detections = dets
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

//worksim:hotpath
func (p *wireParser) parseDetection(d *sensors.Detection) bool {
	if !p.eat('{') {
		return false
	}
	first := true
	for {
		p.ws()
		if p.eat('}') {
			return true
		}
		if !first && !p.eat(',') {
			return false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch string(key) {
		case "targetId":
			if !p.stringInto(&d.TargetID) {
				return false
			}
		case "pos":
			if !p.parseVec(&d.Pos) {
				return false
			}
		case "confidence":
			v, ok := p.parseFloat()
			if !ok {
				return false
			}
			d.Confidence = v
		case "sensor":
			if !p.stringInto(&d.Sensor) {
				return false
			}
		case "falsePositive":
			v, ok := p.parseBool()
			if !ok {
				return false
			}
			d.FalsePositive = v
		default:
			return false
		}
	}
}

//worksim:hotpath
func (p *wireParser) parseVec(v *geo.Vec) bool {
	if !p.eat('{') {
		return false
	}
	first := true
	for {
		p.ws()
		if p.eat('}') {
			return true
		}
		if !first && !p.eat(',') {
			return false
		}
		if !first {
			p.ws()
		}
		first = false
		key, ok := p.parseString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch string(key) {
		case "x":
			f, ok := p.parseFloat()
			if !ok {
				return false
			}
			v.X = f
		case "y":
			f, ok := p.parseFloat()
			if !ok {
				return false
			}
			v.Y = f
		default:
			return false
		}
	}
}
