package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval around a call the benchmark makes into the
// system. Spans of one request or sweep share Req; a span caused by another
// names it as Parent.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
}

func (s span) dur() float64 { return s.EndUs - s.StartUs }

// tracer keeps spans in memory until the benchmark writes them out. A nil
// *tracer records nothing, so untraced repetitions pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Duration
}

// start opens a span named name under parent (0 for a root span).
func (t *tracer) start(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, req: req, name: name, start: clock()}
}

// end closes the span and records it.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	end := clock()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		StartUs: float64(s.start) / 1e3, EndUs: float64(end) / 1e3,
	})
	s.t.mu.Unlock()
}

// selfTimes returns the self time in milliseconds of every span named name:
// its duration minus the time its child spans cover. Children of one span
// run one after another, so their durations add.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.dur()-children[s.ID])/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
