package campaign

import (
	"encoding/json"
	"slices"
	"strconv"

	"repro/internal/jsonenc"
)

// exportJSON is the one encoder behind (*Result).JSON and
// (*SweepResult).JSON: write appends v's export, and exportJSON returns
// exactly the bytes json.MarshalIndent(v, "", "  ") returns. The writer
// mirrors encoding/json field for field: map keys sorted, omitempty fields
// left out when zero, null for a nil slice, map or pointer, [] and {} when
// empty, floats as jsonenc.AppendFloat writes them. A string jsonenc does
// not cover, or a NaN or infinite float, sends the whole export to
// json.MarshalIndent, which writes the escapes or reports the error.
func exportJSON(v any, sizeHint int, write func(w *jsonWriter)) ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, sizeHint), ok: true}
	write(&w)
	if w.ok {
		return w.b, nil
	}
	return json.MarshalIndent(v, "", "  ")
}

// jsonWriter appends indented JSON. ok is cleared by a value jsonenc does
// not cover; the bytes are then discarded.
type jsonWriter struct {
	b     []byte
	depth int
	ok    bool
	keys  []string // scratch for sorting a metric map's keys
}

// line starts a new line at the current depth.
func (w *jsonWriter) line() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, "  "...)
	}
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	w.line()
	w.b = append(w.b, c)
}

// field starts the member name of an object, the first or a later one.
func (w *jsonWriter) field(name string, first bool) {
	if !first {
		w.b = append(w.b, ',')
	}
	w.line()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *jsonWriter) str(s string)    { w.b, w.ok = jsonenc.AppendText(w.b, s, w.ok) }
func (w *jsonWriter) num(n int64)     { w.b = strconv.AppendInt(w.b, n, 10) }
func (w *jsonWriter) float(f float64) { w.b, w.ok = jsonenc.AppendFloat(w.b, f, w.ok) }
func (w *jsonWriter) null()           { w.b = append(w.b, "null"...) }

// array writes a slice of n elements with elem, or null for a nil one.
func (w *jsonWriter) array(n int, isNil bool, elem func(i int)) {
	switch {
	case isNil:
		w.null()
	case n == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.line()
			elem(i)
		}
		w.close(']')
	}
}

func (w *jsonWriter) sweep(r *SweepResult) {
	if r == nil {
		w.null()
		return
	}
	w.open('{')
	w.field("version", true)
	w.str(r.Version)
	w.field("durationNs", false)
	w.num(int64(r.Duration))
	w.field("seeds", false)
	w.seedRange(r.Seeds)
	if r.Shard != nil {
		w.field("shard", false)
		w.open('{')
		w.field("index", true)
		w.num(int64(r.Shard.Index))
		w.field("count", false)
		w.num(int64(r.Shard.Count))
		w.close('}')
	}
	w.field("cells", false)
	w.array(len(r.Cells), r.Cells == nil, func(i int) {
		c := &r.Cells[i]
		w.open('{')
		w.field("scenario", true)
		w.str(c.Scenario)
		w.field("profile", false)
		w.str(c.Profile)
		w.field("result", false)
		w.result(c.Result)
		w.close('}')
	})
	w.close('}')
}

func (w *jsonWriter) result(r *Result) {
	if r == nil {
		w.null()
		return
	}
	w.open('{')
	w.field("version", true)
	w.str(r.Version)
	w.field("experimentId", false)
	w.str(r.ExperimentID)
	if r.Section != "" {
		w.field("section", false)
		w.str(r.Section)
	}
	if r.Description != "" {
		w.field("description", false)
		w.str(r.Description)
	}
	w.field("params", false)
	w.params(r.Params)
	w.field("seeds", false)
	w.seedRange(r.Seeds)
	w.field("perSeed", false)
	w.array(len(r.PerSeed), r.PerSeed == nil, func(i int) { w.seedRun(&r.PerSeed[i]) })
	w.field("aggregates", false)
	w.array(len(r.Aggregates), r.Aggregates == nil, func(i int) { w.aggregate(&r.Aggregates[i]) })
	w.close('}')
}

func (w *jsonWriter) params(p Params) {
	w.open('{')
	w.field("seed", true)
	w.num(p.Seed)
	if p.Duration != 0 {
		w.field("durationNs", false)
		w.num(int64(p.Duration))
	}
	if p.Trials != 0 {
		w.field("trials", false)
		w.num(int64(p.Trials))
	}
	if p.Scenarios != 0 {
		w.field("scenarios", false)
		w.num(int64(p.Scenarios))
	}
	w.close('}')
}

func (w *jsonWriter) seedRange(s SeedRange) {
	w.open('{')
	w.field("base", true)
	w.num(s.Base)
	w.field("count", false)
	w.num(int64(s.Count))
	w.close('}')
}

func (w *jsonWriter) seedRun(s *SeedRun) {
	w.open('{')
	w.field("seed", true)
	w.num(s.Seed)
	w.field("metrics", false)
	w.metrics(s.Metrics)
	if len(s.Timeseries) != 0 {
		w.field("timeseries", false)
		w.array(len(s.Timeseries), false, func(i int) { w.timePoint(&s.Timeseries[i]) })
	}
	if s.StoppedAt != 0 {
		w.field("stoppedAtNs", false)
		w.num(int64(s.StoppedAt))
	}
	w.close('}')
}

// metrics writes a metric map with its keys in sorted order.
func (w *jsonWriter) metrics(m map[string]float64) {
	switch {
	case m == nil:
		w.null()
		return
	case len(m) == 0:
		w.b = append(w.b, "{}"...)
		return
	}
	keys := w.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.open('{')
	for i, k := range keys {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.line()
		w.str(k)
		w.b = append(w.b, ": "...)
		w.float(m[k])
	}
	w.close('}')
	w.keys = keys
}

func (w *jsonWriter) timePoint(p *TimePoint) {
	w.open('{')
	w.field("atNs", true)
	w.num(int64(p.At))
	w.field("mission", false)
	w.str(p.Mission)
	w.field("mode", false)
	w.str(p.Mode)
	w.field("navErrM", false)
	w.float(p.NavErrM)
	w.field("minWorkerDistM", false)
	w.float(p.MinWorkerDistM)
	w.field("stopped", false)
	w.b = jsonenc.AppendBool(w.b, p.Stopped)
	w.field("logsDelivered", false)
	w.num(int64(p.LogsDelivered))
	w.field("collisions", false)
	w.num(int64(p.Collisions))
	w.field("unsafeEpisodes", false)
	w.num(int64(p.UnsafeEpisodes))
	w.field("alerts", false)
	w.num(int64(p.Alerts))
	w.close('}')
}

func (w *jsonWriter) aggregate(a *Aggregate) {
	w.open('{')
	w.field("metric", true)
	w.str(a.Metric)
	w.field("n", false)
	w.num(int64(a.N))
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"mean", a.Mean}, {"stddev", a.Stddev}, {"min", a.Min}, {"max", a.Max}, {"ci95Lo", a.CI95Lo}, {"ci95Hi", a.CI95Hi}} {
		w.field(f.name, false)
		w.float(f.v)
	}
	w.close('}')
}

// sweepSize estimates the bytes of r's export.
func sweepSize(r *SweepResult) int {
	n := 256
	if r != nil {
		for _, c := range r.Cells {
			n += 128 + resultSize(c.Result)
		}
	}
	return n
}

// resultSize estimates the bytes of r's export, so the writer's buffer
// seldom grows.
func resultSize(r *Result) int {
	if r == nil {
		return 4
	}
	n := 512 + 288*len(r.Aggregates)
	for i := range r.PerSeed {
		n += 96 + 48*len(r.PerSeed[i].Metrics) + 320*len(r.PerSeed[i].Timeseries)
	}
	return n
}
