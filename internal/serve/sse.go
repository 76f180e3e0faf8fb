package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// eventLog is the bounded replay ring between one run's event stream and
// its SSE consumers. The simulation-side producer (an observer inside the
// tick loop) only ever appends under a short critical section — it never
// blocks on consumers — while each consumer pages through the ring at its
// own pace. A consumer that falls more than the ring capacity behind loses
// the evicted prefix; sequence numbers (1-based, monotonically increasing)
// make the gap visible and let a reconnecting client resume exactly where
// it left off via Last-Event-ID.
type eventLog struct {
	cap int

	mu      sync.Mutex
	entries []sseEntry
	next    uint64 // sequence number of the next event appended
	closed  bool
	notify  chan struct{}
}

// sseEntry is one encoded event: the tracefmt JSON line plus its SSE
// framing metadata.
type sseEntry struct {
	seq  uint64
	kind string
	data []byte
}

func newEventLog(capacity int) *eventLog {
	return &eventLog{cap: capacity, next: 1, notify: make(chan struct{})}
}

// append stores one encoded event, evicting the oldest beyond capacity, and
// wakes waiting consumers.
func (l *eventLog) append(kind string, data []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.entries = append(l.entries, sseEntry{seq: l.next, kind: kind, data: data})
	l.next++
	if len(l.entries) > l.cap {
		// Drop the oldest; copy to keep the backing array from pinning
		// evicted payloads.
		l.entries = append(l.entries[:0], l.entries[1:]...)
	}
	notify := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(notify)
}

// close marks the stream complete and wakes consumers a final time.
func (l *eventLog) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	notify := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(notify)
}

// total returns how many events have been published so far.
func (l *eventLog) total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// since returns the retained entries with sequence numbers beyond after,
// how many requested events were already evicted, whether the stream is
// complete, and a channel closed on the next append/close. The returned
// slice is a snapshot safe to read without the lock.
func (l *eventLog) since(after uint64) (batch []sseEntry, evicted uint64, closed bool, notify chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.entries); n > 0 {
		first := l.entries[0].seq
		if after+1 < first {
			evicted = first - after - 1
			after = first - 1
		}
		// Entries are seq-ordered and dense: index straight to the cursor.
		if idx := int(after+1) - int(first); idx < n {
			batch = append([]sseEntry(nil), l.entries[idx:]...)
		}
	} else if l.next > 0 && after+1 < l.next {
		// Everything the client asked to resume from is long gone.
		evicted = l.next - 1 - after
	}
	return batch, evicted, l.closed, l.notify
}

// handleRunEvents streams one run's event feed as Server-Sent Events:
//
//	id: <seq>
//	event: <kind>                      // tick, alert, attack-phase, ...
//	data: {"event": KIND, "data": {...}}   // the -trace JSON line, verbatim
//
// The stream replays from the beginning (or from Last-Event-ID / ?after= on
// reconnect), then follows the live feed until the run reaches a terminal
// state, and closes with a final `event: end` carrying the run status. A
// replay cursor that points at evicted events resumes at the oldest
// retained event after an SSE comment stating the gap size.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.runs.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &apiError{Status: http.StatusInternalServerError,
			Code: "unsupported", Message: "response writer does not support streaming"})
		return
	}
	after := parseCursor(r)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		batch, evicted, closed, notify := j.log.since(after)
		if evicted > 0 {
			// SSE comment: invisible to EventSource handlers, explicit on
			// the wire. The client's cursor jumps over the evicted gap.
			if _, err := fmt.Fprintf(w, ": replay gap: %d event(s) evicted from the ring buffer\n\n", evicted); err != nil {
				return
			}
			after += evicted
		}
		for _, e := range batch {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.seq, e.kind, e.data); err != nil {
				return
			}
			after = e.seq
		}
		if len(batch) > 0 || evicted > 0 {
			flusher.Flush()
		}
		if closed {
			// Terminal frame so clients need not poll for the final state.
			_, _ = fmt.Fprintf(w, "id: %d\nevent: end\ndata: %s\n\n", after+1, j.statusJSON())
			flusher.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
	}
}

// parseCursor resolves the replay cursor: the SSE-standard Last-Event-ID
// header, or an ?after= query parameter for curl-driven resumption. Zero
// replays from the beginning.
func parseCursor(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if q := r.URL.Query().Get("after"); q != "" {
		v = q
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}
