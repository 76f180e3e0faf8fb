package campaign

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"time"

	"repro/internal/resultcache"
	"repro/internal/worksite"
)

// A run record is the payload the result cache holds for one completed
// run: an Outcome's Metrics, Timeseries and StoppedAt, everything of a
// SeedRun but the seed, which the key carries. It is a fixed binary
// layout, integers little-endian:
//
//	format byte (recordFormat)
//	StoppedAt in ns, i64
//	metric count u32, then per metric in name order:
//	    name length u32 | name | IEEE-754 bits u64
//	point count u32, then per TimePoint:
//	    At in ns i64 | Mission length u32 | Mission | Mode length u32 | Mode |
//	    NavErrM bits u64 | MinWorkerDistM bits u64 | Stopped byte (0 or 1) |
//	    LogsDelivered, Collisions, UnsafeEpisodes, Alerts i64 each
//
// Floats are stored by their bits, so a decoded record exports the same
// bytes as the run that produced it, -0 and subnormals included. A record
// always decodes to a non-nil metric map (a run's SweepMetrics never is
// nil) and, with no points, a nil timeseries. Records of the earlier JSON
// payload begin with '{', not recordFormat, so they decode as
// resultcache.ErrOtherFormat: a miss, recomputed and shadowed, not damage.
const recordFormat = 1

// Fixed sizes of the layout's per-element parts, strings excluded.
const (
	metricMinLen = 4 + 8
	pointMinLen  = 8 + 4 + 4 + 8 + 8 + 1 + 4*8
)

// errRecord is a record that claims recordFormat but does not parse: a
// damaged payload, counted corrupt.
var errRecord = errors.New("campaign: malformed run record")

// metricNames maps each SweepMetrics name to itself, so a decoded record
// shares the name strings instead of allocating one per metric. It is
// filled once and only read.
var metricNames = func() map[string]string {
	m := SweepMetrics(worksite.Report{})
	names := make(map[string]string, len(m))
	for k := range m {
		names[k] = k
	}
	return names
}()

// appendRunRecord appends out's run record to dst.
func appendRunRecord(dst []byte, out Outcome) []byte {
	var scratch [24]string
	names := scratch[:0]
	for k := range out.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	size := 1 + 8 + 4 + len(names)*metricMinLen + 4 + len(out.Timeseries)*pointMinLen
	for _, k := range names {
		size += len(k)
	}
	for _, p := range out.Timeseries {
		size += len(p.Mission) + len(p.Mode)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, recordFormat)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(out.StoppedAt))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(names)))
	for _, k := range names {
		dst = appendRecordString(dst, k)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(out.Metrics[k]))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(out.Timeseries)))
	for _, p := range out.Timeseries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.At))
		dst = appendRecordString(dst, p.Mission)
		dst = appendRecordString(dst, p.Mode)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.NavErrM))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.MinWorkerDistM))
		stopped := byte(0)
		if p.Stopped {
			stopped = 1
		}
		dst = append(dst, stopped)
		for _, n := range [...]int{p.LogsDelivered, p.Collisions, p.UnsafeEpisodes, p.Alerts} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(n)))
		}
	}
	return dst
}

func appendRecordString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// decodeRunRecord decodes a run record. It returns
// resultcache.ErrOtherFormat for a payload that does not begin with
// recordFormat and errRecord for one that does but does not parse; it
// keeps no reference to b.
func decodeRunRecord(b []byte) (Outcome, error) {
	if len(b) == 0 || b[0] != recordFormat {
		return Outcome{}, resultcache.ErrOtherFormat
	}
	d := recordDecoder{b: b[1:], ok: true}
	out := Outcome{StoppedAt: time.Duration(d.u64())}
	n := d.count(metricMinLen)
	out.Metrics = make(map[string]float64, n)
	prev := ""
	for i := 0; i < n && d.ok; i++ {
		k := d.name()
		if i > 0 && k <= prev {
			d.ok = false // names are stored strictly ascending
		}
		out.Metrics[k] = math.Float64frombits(d.u64())
		prev = k
	}
	if n := d.count(pointMinLen); n > 0 {
		out.Timeseries = make([]TimePoint, n)
		for i := range out.Timeseries {
			p := &out.Timeseries[i]
			p.At = time.Duration(d.u64())
			p.Mission, p.Mode = d.str(), d.str()
			p.NavErrM = math.Float64frombits(d.u64())
			p.MinWorkerDistM = math.Float64frombits(d.u64())
			switch d.u8() {
			case 0:
			case 1:
				p.Stopped = true
			default:
				d.ok = false
			}
			p.LogsDelivered, p.Collisions, p.UnsafeEpisodes, p.Alerts = d.num(), d.num(), d.num(), d.num()
		}
	}
	if !d.ok || len(d.b) != 0 {
		return Outcome{}, errRecord
	}
	return out, nil
}

// recordDecoder reads a run record's fields in order. A read past the end
// clears ok and returns a zero value, so a caller checks ok once at the
// end.
type recordDecoder struct {
	b  []byte
	ok bool
}

func (d *recordDecoder) take(n int) []byte {
	if !d.ok || n < 0 || n > len(d.b) {
		d.ok = false
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *recordDecoder) u8() byte {
	if v := d.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (d *recordDecoder) u32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (d *recordDecoder) u64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// num reads an i64 that must fit an int on this GOARCH.
func (d *recordDecoder) num() int {
	v := int64(d.u64())
	if int64(int(v)) != v {
		d.ok = false
	}
	return int(v)
}

// count reads an element count, which cannot exceed the elements of
// minLen bytes each that the bytes left could hold.
func (d *recordDecoder) count(minLen int) int {
	n := d.u32()
	if uint64(n) > uint64(len(d.b)/minLen) {
		d.ok = false
		return 0
	}
	return int(n)
}

func (d *recordDecoder) bytes() []byte {
	n := d.u32()
	if uint64(n) > uint64(len(d.b)) {
		d.ok = false
		return nil
	}
	return d.take(int(n))
}

func (d *recordDecoder) str() string { return string(d.bytes()) }

// name reads a metric name, sharing the string of a SweepMetrics name.
func (d *recordDecoder) name() string {
	b := d.bytes()
	if k, ok := metricNames[string(b)]; ok {
		return k
	}
	return string(b)
}
