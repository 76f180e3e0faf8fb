package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/worksite"
)

// TestEventLogSequencesAndReplay: appends are 1-based dense sequences; a
// cursor replays exactly the entries beyond it.
func TestEventLogSequencesAndReplay(t *testing.T) {
	l := newEventLog(10)
	for i := 0; i < 5; i++ {
		l.append("tick", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	if got := l.total(); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	batch, evicted, closed, _ := l.since(0)
	if evicted != 0 || closed {
		t.Fatalf("since(0): evicted=%d closed=%v, want 0/false", evicted, closed)
	}
	if len(batch) != 5 {
		t.Fatalf("since(0) returned %d entries, want 5", len(batch))
	}
	for i, e := range batch {
		if e.seq != uint64(i+1) {
			t.Fatalf("entry %d seq = %d, want %d", i, e.seq, i+1)
		}
	}
	batch, _, _, _ = l.since(3)
	if len(batch) != 2 || batch[0].seq != 4 || batch[1].seq != 5 {
		t.Fatalf("since(3) = %+v, want seqs [4 5]", batch)
	}
	if batch, _, _, _ = l.since(5); len(batch) != 0 {
		t.Fatalf("since(5) = %+v, want empty", batch)
	}
}

// TestEventLogEviction: the ring keeps the newest cap entries; a stale
// cursor reports the gap and resumes at the oldest retained event.
func TestEventLogEviction(t *testing.T) {
	l := newEventLog(3)
	for i := 1; i <= 8; i++ {
		l.append("tick", []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	// Retained: seqs 6, 7, 8. A from-the-start cursor lost 5 events.
	batch, evicted, _, _ := l.since(0)
	if evicted != 5 {
		t.Fatalf("since(0) evicted = %d, want 5", evicted)
	}
	if len(batch) != 3 || batch[0].seq != 6 || batch[2].seq != 8 {
		t.Fatalf("since(0) batch seqs = %+v, want [6 7 8]", batch)
	}
	// A cursor inside the retained window sees no gap.
	batch, evicted, _, _ = l.since(6)
	if evicted != 0 || len(batch) != 2 || batch[0].seq != 7 {
		t.Fatalf("since(6) = %+v evicted=%d, want seqs [7 8] gap 0", batch, evicted)
	}
}

// TestEventLogNotifyAndClose: waiting consumers wake on append and on close;
// appends after close are dropped.
func TestEventLogNotifyAndClose(t *testing.T) {
	l := newEventLog(10)
	_, _, closed, notify := l.since(0)
	if closed {
		t.Fatal("fresh log reports closed")
	}
	select {
	case <-notify:
		t.Fatal("notify fired before any append")
	default:
	}
	l.append("tick", []byte(`{}`))
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the waiting consumer")
	}
	batch, _, closed, notify := l.since(0)
	if len(batch) != 1 || closed {
		t.Fatalf("after append: batch=%d closed=%v, want 1/false", len(batch), closed)
	}
	l.close()
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the waiting consumer")
	}
	l.append("tick", []byte(`{}`)) // dropped
	if _, _, closed, _ := l.since(1); !closed {
		t.Fatal("closed log does not report closed")
	}
	if got := l.total(); got != 1 {
		t.Fatalf("append after close changed total to %d, want 1", got)
	}
}

// TestParseAPIKeys: one key per line, comments and blanks ignored.
func TestParseAPIKeys(t *testing.T) {
	keys := ParseAPIKeys([]byte("# ops keys\nalpha\n\n  beta  \n# trailing\n"))
	if len(keys) != 2 || keys[0] != "alpha" || keys[1] != "beta" {
		t.Fatalf("ParseAPIKeys = %v, want [alpha beta]", keys)
	}
	if keys := ParseAPIKeys(nil); keys != nil {
		t.Fatalf("ParseAPIKeys(nil) = %v, want nil", keys)
	}
}

// fakeClock is an injectable wall clock for the token-bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestTokenBucketRefill: a key gets burst requests instantly, is rejected
// once drained, and refills at the configured rate.
func TestTokenBucketRefill(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator(nil, 2, 4, clk.now) // 2 req/s, burst 4
	for i := 0; i < 4; i++ {
		if !a.allow("k") {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	if a.allow("k") {
		t.Fatal("request beyond burst allowed")
	}
	clk.advance(500 * time.Millisecond) // refills one token at 2/s
	if !a.allow("k") {
		t.Fatal("request after refill rejected")
	}
	if a.allow("k") {
		t.Fatal("second request after a one-token refill allowed")
	}
	clk.advance(time.Hour) // refill caps at burst
	for i := 0; i < 4; i++ {
		if !a.allow("k") {
			t.Fatalf("request %d after long idle rejected", i)
		}
	}
	if a.allow("k") {
		t.Fatal("burst cap not enforced after long idle")
	}
}

// TestTokenBucketPerKey: buckets are independent per key fingerprint.
func TestTokenBucketPerKey(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator(nil, 1, 1, clk.now)
	if !a.allow("a") {
		t.Fatal("first request on key a rejected")
	}
	if a.allow("a") {
		t.Fatal("drained key a still allowed")
	}
	if !a.allow("b") {
		t.Fatal("key b throttled by key a's bucket")
	}
}

// TestAuthenticatorCheck: key-set enforcement and the loggable fingerprint.
func TestAuthenticatorCheck(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAuthenticator([]string{"secret"}, -1, 0, clk.now)

	req := func(header, value string) *http.Request {
		r, err := http.NewRequest(http.MethodGet, "/v1/runs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			r.Header.Set(header, value)
		}
		return r
	}

	if _, apiErr := a.check(req("", "")); apiErr == nil || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("missing key: %+v, want 401", apiErr)
	}
	if _, apiErr := a.check(req("X-API-Key", "wrong")); apiErr == nil || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("unknown key: %+v, want 401", apiErr)
	}
	id, apiErr := a.check(req("Authorization", "Bearer secret"))
	if apiErr != nil {
		t.Fatalf("valid bearer key rejected: %+v", apiErr)
	}
	if id == "" || id == "secret" || id == "anonymous" {
		t.Fatalf("keyID = %q, want a fingerprint that is neither empty nor the key", id)
	}
	if id2, _ := a.check(req("X-API-Key", "secret")); id2 != id {
		t.Fatalf("X-API-Key fingerprint %q differs from bearer fingerprint %q", id2, id)
	}
}

// TestRegistryIDsAndOrder: dense prefixed IDs, lookup, and ID-ordered
// listing.
func TestRegistryIDsAndOrder(t *testing.T) {
	reg := newRegistry[*runJob]("r", "run")
	a := reg.add(func(id string) *runJob { return &runJob{job: job{id: id}} })
	b := reg.add(func(id string) *runJob { return &runJob{job: job{id: id}} })
	if a.id != "r-000001" || b.id != "r-000002" {
		t.Fatalf("ids = %q, %q, want r-000001, r-000002", a.id, b.id)
	}
	if got, ok := reg.get("r-000002"); !ok || got != b {
		t.Fatalf("get(r-000002) = %v, %v", got, ok)
	}
	if _, ok := reg.get("r-999999"); ok {
		t.Fatal("get of an unknown id succeeded")
	}
	all := reg.all()
	if len(all) != 2 || all[0] != a || all[1] != b {
		t.Fatalf("all() not in ID order: %v", all)
	}
}

// TestRegistryOrderPastPadding: the listing stays in numeric ID order once
// the IDs outgrow their six-digit padding, where string order would put
// r-1000000 before r-999999.
func TestRegistryOrderPastPadding(t *testing.T) {
	reg := newRegistry[*runJob]("r", "run")
	reg.next = 999_998
	for i := 0; i < 3; i++ {
		reg.add(func(id string) *runJob { return &runJob{job: job{id: id}} })
	}
	var got []string
	for _, j := range reg.all() {
		got = append(got, j.id)
	}
	if want := []string{"r-999999", "r-1000000", "r-1000001"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("all() = %v, want %v", got, want)
	}
}

// TestHTTPServerTimeouts: the http.Server that Serve runs bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection lives, and leaves writes unbounded for long-lived SSE streams.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := New(Config{}).httpServer()
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 so event streams are not cut", srv.WriteTimeout)
	}
}

// TestSubmitCaps: a run horizon, a sweep duration, a sweep's worker pool, a
// sweep cube or a sweep's timeseries above its cap, or a negative sample
// interval, is a 422 naming the field, and creates no job.
func TestSubmitCaps(t *testing.T) {
	overDay := int64(maxSimDuration) + 1
	cases := []struct {
		name, path, body, field string
	}{
		{"run horizon", "/v1/runs", fmt.Sprintf(`{"scenario":"baseline","horizonNs":%d}`, overDay), "horizonNs"},
		{"negative run horizon", "/v1/runs", `{"scenario":"baseline","horizonNs":-5}`, "horizonNs"},
		{"declared spec horizon", "/v1/runs", fmt.Sprintf(`{"spec":{"horizonNs":%d}}`, overDay), "horizonNs"},
		{"sweep duration", "/v1/sweeps", fmt.Sprintf(`{"durationNs":%d}`, overDay), "durationNs"},
		{"sweep parallel", "/v1/sweeps", fmt.Sprintf(`{"parallel":%d}`, maxParallel+1), "parallel"},
		{"one cell, one seed over", "/v1/sweeps",
			fmt.Sprintf(`{"scenarios":["baseline"],"profiles":["secured"],"seeds":{"count":%d}}`, maxSweepRuns+1), "seeds.count"},
		{"billion seeds over the catalog", "/v1/sweeps", `{"seeds":{"count":1000000000}}`, "seeds.count"},
		{"count that overflows the cube", "/v1/sweeps", `{"seeds":{"count":9223372036854775807}}`, "seeds.count"},
		{"count that overflows int64", "/v1/sweeps", `{"seeds":{"count":99999999999999999999}}`, "seeds.count"},
		{"fractional count", "/v1/sweeps", `{"seeds":{"count":1.5}}`, "seeds.count"},
		{"negative seed count", "/v1/sweeps", `{"scenarios":["baseline"],"seeds":{"base":7,"count":-2}}`, "seeds.count"},
		{"negative sample interval", "/v1/sweeps", `{"scenarios":["baseline"],"sampleNs":-1}`, "sampleNs"},
		{"one-nanosecond samples over a day", "/v1/sweeps",
			fmt.Sprintf(`{"scenarios":["baseline"],"profiles":["secured"],"durationNs":%d,"sampleNs":1}`, int64(maxSimDuration)), "sampleNs"},
		{"timeseries points over the cap", "/v1/sweeps",
			fmt.Sprintf(`{"scenarios":["baseline"],"profiles":["secured"],"seeds":{"count":%d},"durationNs":%d,"sampleNs":1000}`,
				maxSweepPoints/1000+1, 1000*1000), "sampleNs"},
	}
	s := New(Config{})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			var body struct{ Error apiError }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("decode %q: %v", rec.Body, err)
			}
			if rec.Code != http.StatusUnprocessableEntity || body.Error.Field != tc.field {
				t.Fatalf("status %d field %q, want 422 field %q (error: %+v)", rec.Code, body.Error.Field, tc.field, body.Error)
			}
		})
	}
	if runs, sweeps := len(s.runs.all()), len(s.sweeps.all()); runs != 0 || sweeps != 0 {
		t.Fatalf("rejected submissions created %d runs and %d sweeps", runs, sweeps)
	}

	// A zero count is accepted as one run at the caller's base, not the
	// default range.
	t.Run("zero seed count", func(t *testing.T) {
		rec := httptest.NewRecorder()
		body := `{"scenarios":["baseline"],"profiles":["unsecured"],"seeds":{"base":7,"count":0},"durationNs":1000000000}`
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", strings.NewReader(body)))
		var st sweepStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("decode %q: %v", rec.Body, err)
		}
		if want := (campaign.SeedRange{Base: 7, Count: 1}); rec.Code != http.StatusAccepted || st.Seeds != want {
			t.Fatalf("status %d seeds %+v, want 202 seeds %+v", rec.Code, st.Seeds, want)
		}
	})
	if err := s.drain(&http.Server{}); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestExecuteRunPanicFailsJob: a panic inside a job's work (a subscribed
// run observer, or a sweep's work function) fails that job with the panic
// text instead of killing the daemon, and the executor still closes the
// run's event log and frees the job slot.
func TestExecuteRunPanicFailsJob(t *testing.T) {
	cases := []struct {
		name, panicText string
		// start registers one job whose work panics and runs it through
		// the executor; it returns the job's core and its event log (nil
		// for a sweep, which has none).
		start func(t *testing.T, s *Server) (*job, *eventLog)
	}{
		{"run", "panic: observer exploded", func(t *testing.T, s *Server) (*job, *eventLog) {
			spec, err := scenario.Get("baseline")
			if err != nil {
				t.Fatal(err)
			}
			batch, err := scenario.NewBatchWith(spec, &s.comm)
			if err != nil {
				t.Fatal(err)
			}
			sess, _, err := batch.Build(1, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			sess.Subscribe(&worksite.ObserverFuncs{Tick: func(worksite.TickSnapshot) { panic("observer exploded") }})
			ctx, cancel := context.WithCancel(s.root)
			j := s.runs.add(func(id string) *runJob {
				return &runJob{job: job{id: id, cancel: cancel, state: StatePending}, horizon: time.Minute, log: newEventLog(8)}
			})
			s.execute(ctx, &j.job, runWork(sess, j.horizon), j.log.close)
			return &j.job, j.log
		}},
		{"sweep", "panic: sweep exploded", func(t *testing.T, s *Server) (*job, *eventLog) {
			ctx, cancel := context.WithCancel(s.root)
			j := s.sweeps.add(func(id string) *sweepJob {
				return &sweepJob{job: job{id: id, cancel: cancel, state: StatePending}}
			})
			s.execute(ctx, &j.job, func(context.Context) (json.RawMessage, error) { panic("sweep exploded") }, nil)
			return &j.job, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			if apiErr := s.acquireJobSlot(); apiErr != nil {
				t.Fatal(apiErr)
			}
			j, log := tc.start(t, s)
			state, errMsg, _ := j.outcome()
			if state != StateFailed || !strings.Contains(errMsg, tc.panicText) {
				t.Fatalf("job after a panicking %s = %s %q, want failed with %q", tc.name, state, errMsg, tc.panicText)
			}
			if log != nil {
				if _, _, closed, _ := log.since(0); !closed {
					t.Fatal("event log left open after a panicking run")
				}
			}
			if n := s.ActiveJobs(); n != 0 {
				t.Fatalf("after a panicking %s: %d active jobs, want 0", tc.name, n)
			}
		})
	}
}

// TestDrainWaitsForAcceptedSubmission: drain counts a submission from the
// moment it takes its slot, before its job is registered, and a job
// registered after the drain deadline starts out cancelled.
func TestDrainWaitsForAcceptedSubmission(t *testing.T) {
	t.Run("slot held", func(t *testing.T) {
		s := New(Config{DrainTimeout: time.Minute})
		if apiErr := s.acquireJobSlot(); apiErr != nil {
			t.Fatal(apiErr)
		}
		done := make(chan error, 1)
		go func() { done <- s.drain(&http.Server{}) }()
		select {
		case err := <-done:
			t.Fatalf("drain returned (%v) while an accepted submission held its slot", err)
		case <-time.After(200 * time.Millisecond):
		}
		s.releaseJobSlot()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain = %v, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain did not return once the slot was released")
		}
	})
	t.Run("registered after the deadline", func(t *testing.T) {
		s := New(Config{DrainTimeout: 20 * time.Millisecond})
		if apiErr := s.acquireJobSlot(); apiErr != nil {
			t.Fatal(apiErr)
		}
		done := make(chan error, 1)
		go func() { done <- s.drain(&http.Server{}) }()
		select {
		case <-s.root.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("drain never cancelled the job root at its deadline")
		}
		// The submission that took the slot registers its job now, the way
		// the submit handlers do.
		ctx, cancel := context.WithCancel(s.root)
		if ctx.Err() == nil {
			t.Fatal("a job registered after the drain deadline got a live context")
		}
		j := s.sweeps.add(func(id string) *sweepJob {
			return &sweepJob{job: job{id: id, cancel: cancel, state: StatePending}}
		})
		go s.execute(ctx, &j.job, func(ctx context.Context) (json.RawMessage, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}, nil)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain = %v, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("drain did not return after the late job was cancelled")
		}
		if state, _, _ := j.outcome(); state != StateCancelled {
			t.Fatalf("late job ended %s, want cancelled", state)
		}
	})
}

// TestCancelAndNotFoundBothKinds: runs and sweeps share one cancel and one
// lookup. Cancelling a long job ends it cancelled, cancelling a finished
// job leaves it done, and an unknown ID answers 404 not_found naming the
// kind.
func TestCancelAndNotFoundBothKinds(t *testing.T) {
	kinds := []struct {
		kind, path, long, short string
		unknown                 []string // method and path pairs
	}{
		{"run", "/v1/runs",
			`{"scenario":"baseline","horizonNs":86400000000000}`,
			`{"scenario":"baseline","horizonNs":1000000000}`,
			[]string{"GET /v1/runs/r-404", "DELETE /v1/runs/r-404", "GET /v1/runs/r-404/events"}},
		{"sweep", "/v1/sweeps",
			`{"scenarios":["baseline"],"profiles":["secured"],"durationNs":86400000000000}`,
			`{"scenarios":["baseline"],"profiles":["secured"],"durationNs":1000000000}`,
			[]string{"GET /v1/sweeps/w-404", "DELETE /v1/sweeps/w-404"}},
	}
	s := New(Config{})
	do := func(t *testing.T, method, path, body string) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	type status struct {
		ID    string
		State State
	}
	submit := func(t *testing.T, path, body string) string {
		t.Helper()
		code, b := do(t, http.MethodPost, path, body)
		var st status
		if err := json.Unmarshal(b, &st); code != http.StatusAccepted || err != nil || st.ID == "" {
			t.Fatalf("POST %s: status %d body %s", path, code, b)
		}
		return st.ID
	}
	await := func(t *testing.T, path string) State {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st status
			if _, b := do(t, http.MethodGet, path, ""); json.Unmarshal(b, &st) != nil {
				t.Fatalf("GET %s: %s", path, b)
			}
			if st.State.Terminal() {
				return st.State
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still %s after 30s", path, st.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, k := range kinds {
		t.Run(k.kind+"/cancel long job", func(t *testing.T) {
			job := k.path + "/" + submit(t, k.path, k.long)
			if code, b := do(t, http.MethodDelete, job, ""); code != http.StatusOK {
				t.Fatalf("DELETE %s: status %d body %s", job, code, b)
			}
			if state := await(t, job); state != StateCancelled {
				t.Fatalf("cancelled %s ended %s, want cancelled", k.kind, state)
			}
		})
		t.Run(k.kind+"/cancel finished job", func(t *testing.T) {
			job := k.path + "/" + submit(t, k.path, k.short)
			if state := await(t, job); state != StateDone {
				t.Fatalf("short %s ended %s, want done", k.kind, state)
			}
			code, b := do(t, http.MethodDelete, job, "")
			var st status
			if err := json.Unmarshal(b, &st); code != http.StatusOK || err != nil || st.State != StateDone {
				t.Fatalf("DELETE of a finished %s: status %d body %s, want 200 done", k.kind, code, b)
			}
			if state := await(t, job); state != StateDone {
				t.Fatalf("finished %s became %s after DELETE, want done", k.kind, state)
			}
		})
		t.Run(k.kind+"/unknown id", func(t *testing.T) {
			for _, req := range k.unknown {
				method, path, _ := strings.Cut(req, " ")
				code, b := do(t, method, path, "")
				var body struct{ Error apiError }
				if err := json.Unmarshal(b, &body); err != nil || code != http.StatusNotFound ||
					body.Error.Code != "not_found" || !strings.Contains(body.Error.Message, "no "+k.kind+" with id") {
					t.Fatalf("%s: status %d body %s, want 404 not_found naming the %s", req, code, b, k.kind)
				}
			}
		})
	}
	for deadline := time.Now().Add(10 * time.Second); s.ActiveJobs() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still active after every job ended", s.ActiveJobs())
		}
	}
}

// TestRouteErrorsUseEnvelope: a path no route serves answers 404 not_found
// and a routed path asked with the wrong method answers 405
// method_not_allowed with its Allow header, both in the JSON error envelope
// rather than net/http's text/plain pages.
func TestRouteErrorsUseEnvelope(t *testing.T) {
	cases := []struct {
		method, path string
		status       int
		code, allow  string
	}{
		{http.MethodGet, "/v1/sweeps/nope/events", http.StatusNotFound, "not_found", ""},
		{http.MethodGet, "/v2/runs", http.StatusNotFound, "not_found", ""},
		{http.MethodPut, "/v1/runs", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD, POST"},
		{http.MethodPost, "/v1/runs/r-1", http.StatusMethodNotAllowed, "method_not_allowed", "DELETE, GET, HEAD"},
		{http.MethodDelete, "/v1/healthz", http.StatusMethodNotAllowed, "method_not_allowed", "GET, HEAD"},
	}
	s := New(Config{})
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
			var body struct{ Error apiError }
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("decode %q: %v", rec.Body, err)
			}
			if rec.Code != tc.status || body.Error.Code != tc.code {
				t.Fatalf("status %d code %q, want %d %q (body %s)", rec.Code, body.Error.Code, tc.status, tc.code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if allow := rec.Header().Get("Allow"); allow != tc.allow {
				t.Errorf("Allow = %q, want %q", allow, tc.allow)
			}
		})
	}
}
