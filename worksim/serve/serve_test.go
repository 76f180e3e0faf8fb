package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/worksim"
	"repro/worksim/serve"
	"repro/worksim/trace"
)

// checkGoroutineLeak snapshots the live goroutine count and returns a
// function to call at the end of the test: it fails if, after a settle
// window, more goroutines are alive than at the snapshot — catching job
// goroutines or SSE streams that outlive their server.
func checkGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d still running after settle window", before, runtime.NumGoroutine())
	}
}

// newTestServer mounts a default-config server on httptest.
func newTestServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(cfg).Handler())
	t.Cleanup(func() {
		ts.Close()
		http.DefaultClient.CloseIdleConnections()
	})
	return ts
}

// postJSON posts a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("response %s is not JSON: %v", data, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("response %s is not JSON: %v", data, err)
		}
	}
	return resp.StatusCode
}

// runStatus mirrors the daemon's run wire schema.
type runStatus struct {
	ID        string          `json:"id"`
	State     serve.State     `json:"state"`
	Scenario  string          `json:"scenario"`
	Profile   string          `json:"profile"`
	Seed      int64           `json:"seed"`
	HorizonNs int64           `json:"horizonNs"`
	Events    uint64          `json:"events"`
	Error     string          `json:"error"`
	Report    json.RawMessage `json:"report"`
}

// pollRun polls a run until pred holds or the deadline passes.
func pollRun(t *testing.T, base, id string, pred func(runStatus) bool) runStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st runStatus
	for time.Now().Before(deadline) {
		if code := getJSON(t, base+"/v1/runs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET run %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never reached the desired state; last: %+v", id, st)
	return st
}

// TestRunLifecycleByteIdenticalReport is the service's core contract: submit
// → poll → done, with a report byte-identical to an in-process worksim run
// at the same scenario, profile, seed and horizon.
func TestRunLifecycleByteIdenticalReport(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	const (
		scenarioName = "gnss-spoof"
		seed         = int64(7)
		horizon      = 2 * time.Minute
	)
	var st runStatus
	code := postJSON(t, ts.URL+"/v1/runs",
		fmt.Sprintf(`{"scenario":%q,"profile":"secured","seed":%d,"horizonNs":%d}`, scenarioName, seed, int64(horizon)), &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: status %d, want 202", code)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submission response incomplete: %+v", st)
	}
	if st.Scenario != scenarioName || st.Profile != "secured" || st.Seed != seed || st.HorizonNs != int64(horizon) {
		t.Fatalf("echoed parameters wrong: %+v", st)
	}

	final := pollRun(t, ts.URL, st.ID, func(s runStatus) bool { return s.State == serve.StateDone })
	if final.Error != "" || len(final.Report) == 0 {
		t.Fatalf("done run has error=%q report=%d bytes", final.Error, len(final.Report))
	}
	if final.Events == 0 {
		t.Fatal("done run published no events")
	}

	// The same run, in process, through the façade.
	spec, err := worksim.Lookup(scenarioName)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := worksim.Open(spec,
		worksim.WithSeed(seed), worksim.WithHorizon(horizon),
		worksim.WithProfile(worksim.Secured()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Report, want) {
		t.Fatalf("daemon report is not byte-identical to the in-process run:\ndaemon: %s\ndirect: %s", final.Report, want)
	}
}

// TestRunsShareCommissioning: one server commissions each security bundle
// once and every later run forks it — secured baseline, then no-drone (the
// other bundle), then baseline again at another seed (the first bundle,
// reused). Each run's report and SSE event stream must be byte-identical to
// an in-process worksim.Open of the same run, which commissions its own.
func TestRunsShareCommissioning(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	const horizon = 2 * time.Minute
	for _, run := range []struct {
		scenario string
		seed     int64
	}{{"baseline", 7}, {"no-drone", 7}, {"baseline", 11}} {
		var st runStatus
		code := postJSON(t, ts.URL+"/v1/runs",
			fmt.Sprintf(`{"scenario":%q,"profile":"secured","seed":%d,"horizonNs":%d}`, run.scenario, run.seed, int64(horizon)), &st)
		if code != http.StatusAccepted {
			t.Fatalf("%s seed %d: POST /v1/runs: status %d", run.scenario, run.seed, code)
		}
		final := pollRun(t, ts.URL, st.ID, func(s runStatus) bool { return s.State.Terminal() })
		if final.State != serve.StateDone {
			t.Fatalf("%s seed %d: run ended %s (error %q)", run.scenario, run.seed, final.State, final.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		frames := readSSE(t, resp.Body, 1<<20)
		resp.Body.Close()
		var stream bytes.Buffer
		for _, f := range frames {
			if f.event != "end" {
				stream.WriteString(f.data + "\n")
			}
		}

		spec, err := worksim.Lookup(run.scenario)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		w := trace.NewWriter(&want)
		sess, err := worksim.Open(spec, worksim.WithSeed(run.seed), worksim.WithHorizon(horizon),
			worksim.WithProfile(worksim.Secured()), worksim.WithObserver(w.Observer()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		wantReport, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final.Report, wantReport) {
			t.Errorf("%s seed %d: daemon report differs from the in-process run", run.scenario, run.seed)
		}
		if !bytes.Equal(stream.Bytes(), want.Bytes()) {
			t.Errorf("%s seed %d: daemon event stream (%d bytes) differs from the in-process trace (%d bytes)",
				run.scenario, run.seed, stream.Len(), want.Len())
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE consumes an SSE stream until the terminal `event: end` frame (or
// maxFrames), returning the parsed frames.
func readSSE(t *testing.T, r io.Reader, maxFrames int) []sseEvent {
	t.Helper()
	var (
		frames []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseEvent{}) {
				frames = append(frames, cur)
				if cur.event == "end" || len(frames) >= maxFrames {
					return frames
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return frames
}

// TestRunEventsSSEAndReplay: the event stream frames the -trace JSON lines,
// ends with a terminal frame, and replays exactly from a Last-Event-ID
// cursor on reconnect.
func TestRunEventsSSEAndReplay(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	var st runStatus
	code := postJSON(t, ts.URL+"/v1/runs", `{"scenario":"baseline","horizonNs":60000000000}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: status %d", code)
	}
	pollRun(t, ts.URL, st.ID, func(s runStatus) bool { return s.State == serve.StateDone })

	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	frames := readSSE(t, resp.Body, 100000)
	if len(frames) < 4 {
		t.Fatalf("stream produced %d frames, want at least 3 events plus the end frame", len(frames))
	}
	last := frames[len(frames)-1]
	if last.event != "end" {
		t.Fatalf("stream did not finish with an end frame: %+v", last)
	}
	var endStatus runStatus
	if err := json.Unmarshal([]byte(last.data), &endStatus); err != nil || endStatus.State != serve.StateDone {
		t.Fatalf("end frame data = %s (err %v), want the done run status", last.data, err)
	}
	events := frames[: len(frames)-1 : len(frames)-1]
	for i, f := range events {
		if f.id != fmt.Sprint(i+1) {
			t.Fatalf("frame %d id = %s, want dense 1-based sequence", i, f.id)
		}
		// The data payload is the -trace encoding verbatim:
		// {"event": KIND, "data": {...}} with KIND matching the SSE event.
		var line struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(f.data), &line); err != nil {
			t.Fatalf("frame %d data is not a trace line: %v", i, err)
		}
		if line.Event != f.event || len(line.Data) == 0 {
			t.Fatalf("frame %d: SSE event %q vs trace line event %q (data %d bytes)",
				i, f.event, line.Event, len(line.Data))
		}
	}

	// Reconnect mid-stream: replay resumes exactly after the cursor.
	cursor := len(events) / 2
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(cursor))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body, 100000)
	if len(replay) != len(frames)-cursor {
		t.Fatalf("replay after id %d returned %d frames, want %d", cursor, len(replay), len(frames)-cursor)
	}
	if replay[0].id != fmt.Sprint(cursor+1) {
		t.Fatalf("replay resumed at id %s, want %d", replay[0].id, cursor+1)
	}
	for i, f := range replay[:len(replay)-1] {
		orig := events[cursor+i]
		if f.id != orig.id || f.event != orig.event || f.data != orig.data {
			t.Fatalf("replayed frame %d differs from the original stream:\nreplay: %+v\nfirst:  %+v", i, f, orig)
		}
	}
}

// TestCancelMidRun: DELETE stops a long run between control ticks, the job
// reaches the cancelled state, and no goroutine outlives it.
func TestCancelMidRun(t *testing.T) {
	leakCheck := checkGoroutineLeak(t)
	ts := newTestServer(t, serve.Config{})

	var st runStatus
	// The daemon's longest horizon, 24 hours, takes over a second to
	// simulate, far longer than the test takes to cancel it.
	code := postJSON(t, ts.URL+"/v1/runs", `{"scenario":"baseline","horizonNs":86400000000000}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: status %d", code)
	}
	// Ensure it is actually simulating before cancelling.
	pollRun(t, ts.URL, st.ID, func(s runStatus) bool { return s.Events > 0 })

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE run: status %d", resp.StatusCode)
	}

	final := pollRun(t, ts.URL, st.ID, func(s runStatus) bool { return s.State.Terminal() })
	if final.State != serve.StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
	if len(final.Report) != 0 {
		t.Fatal("cancelled run carries a report")
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	leakCheck()
}

// TestAuth: with keys configured every endpoint except the probes demands a
// valid key via Bearer or X-API-Key.
func TestAuth(t *testing.T) {
	ts := newTestServer(t, serve.Config{APIKeys: []string{"s3cret"}})

	status := func(headers map[string]string, path string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status(nil, "/v1/scenarios"); got != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", got)
	}
	if got := status(map[string]string{"X-API-Key": "wrong"}, "/v1/scenarios"); got != http.StatusUnauthorized {
		t.Fatalf("wrong key: status %d, want 401", got)
	}
	if got := status(map[string]string{"Authorization": "Bearer s3cret"}, "/v1/scenarios"); got != http.StatusOK {
		t.Fatalf("bearer key: status %d, want 200", got)
	}
	if got := status(map[string]string{"X-API-Key": "s3cret"}, "/v1/scenarios"); got != http.StatusOK {
		t.Fatalf("X-API-Key: status %d, want 200", got)
	}
	// The probes stay open for load balancers and humans.
	if got := status(nil, "/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz without key: status %d, want 200", got)
	}
	if got := status(nil, "/v1/version"); got != http.StatusOK {
		t.Fatalf("version without key: status %d, want 200", got)
	}
}

// TestRateLimit: the per-key token bucket throttles with 429 + Retry-After
// and refills with the (injected) clock.
func TestRateLimit(t *testing.T) {
	// The injected clock is read from handler goroutines while the test
	// advances it, so guard it.
	var (
		mu    sync.Mutex
		clock = time.Unix(1000, 0)
	)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(d)
	}
	ts := newTestServer(t, serve.Config{RatePerSec: 1, Burst: 2, Now: now})

	get := func() *http.Response {
		resp, err := http.Get(ts.URL + "/v1/scenarios")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := get(); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request beyond burst: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	advance(time.Second) // refill one token
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after refill: status %d, want 200", resp.StatusCode)
	}
}

// apiErrorBody is the daemon's error envelope.
type apiErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Field   string `json:"field"`
	} `json:"error"`
}

// TestSubmitValidation: bad submissions are 4xx with typed, field-naming
// errors — never failed jobs.
func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	cases := []struct {
		name   string
		body   string
		status int
		field  string
	}{
		{"scenario and spec together", `{"scenario":"baseline","spec":{}}`, http.StatusBadRequest, ""},
		{"neither scenario nor spec", `{}`, http.StatusBadRequest, ""},
		{"unknown scenario", `{"scenario":"warp-drive"}`, http.StatusUnprocessableEntity, "scenario"},
		{"unknown profile", `{"scenario":"baseline","profile":"paranoid"}`, http.StatusUnprocessableEntity, "profile"},
		{"non-positive declared horizon", `{"spec":{"horizonNs":-5}}`, http.StatusUnprocessableEntity, "horizonNs"},
		{"duplicate attack schedule", `{"spec":{"attacks":[{"name":"gnss-jam","startFrac":0.1,"stopFrac":0.3},{"name":"gnss-jam","startFrac":0.4,"stopFrac":0.6}]}}`,
			http.StatusUnprocessableEntity, "attacks[1].name"},
		{"trailing garbage", `{"scenario":"baseline"} extra`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body apiErrorBody
			code := postJSON(t, ts.URL+"/v1/runs", tc.body, &body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (error: %+v)", code, tc.status, body.Error)
			}
			if body.Error.Code == "" || body.Error.Message == "" {
				t.Fatalf("error envelope incomplete: %+v", body.Error)
			}
			if body.Error.Field != tc.field {
				t.Fatalf("error.field = %q, want %q", body.Error.Field, tc.field)
			}
		})
	}
	// No job was created by any rejected submission.
	var runs struct {
		Runs []runStatus `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/v1/runs", &runs); code != http.StatusOK || len(runs.Runs) != 0 {
		t.Fatalf("rejected submissions created jobs: status %d, runs %+v", code, runs.Runs)
	}
}

// TestSweepLifecycle: an async sweep reports seed-level progress and
// finishes with the campaign's JSON export.
func TestSweepLifecycle(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	type sweepStatus struct {
		ID       string      `json:"id"`
		State    serve.State `json:"state"`
		Progress struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		} `json:"progress"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	var st sweepStatus
	code := postJSON(t, ts.URL+"/v1/sweeps",
		`{"scenarios":["baseline"],"profiles":["secured"],"seeds":{"base":1,"count":2},"durationNs":60000000000,"parallel":2}`, &st)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d", code)
	}
	if st.Progress.Total != 2 {
		t.Fatalf("progress total = %d, want 2 (1 scenario × 1 profile × 2 seeds)", st.Progress.Total)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !st.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		if code := getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("GET sweep: status %d", code)
		}
	}
	if st.State != serve.StateDone || st.Error != "" {
		t.Fatalf("sweep ended %s (error %q), want done", st.State, st.Error)
	}
	if st.Progress.Done != st.Progress.Total {
		t.Fatalf("done sweep progress %d/%d, want full", st.Progress.Done, st.Progress.Total)
	}
	if len(st.Result) == 0 {
		t.Fatal("done sweep has no result")
	}
}

// TestSweepCacheProgress: with Config.CacheDir set, a repeated sweep is
// served from the content-addressed result cache — progress reports every
// run done on both sweeps and every run cached on the repeat, and the
// result bytes are identical to the cold run's.
func TestSweepCacheProgress(t *testing.T) {
	ts := newTestServer(t, serve.Config{CacheDir: t.TempDir()})
	type sweepStatus struct {
		ID       string      `json:"id"`
		State    serve.State `json:"state"`
		Progress struct {
			Done   int `json:"done"`
			Total  int `json:"total"`
			Cached int `json:"cached"`
		} `json:"progress"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	submit := func() sweepStatus {
		t.Helper()
		var st sweepStatus
		code := postJSON(t, ts.URL+"/v1/sweeps",
			`{"scenarios":["baseline"],"profiles":["unsecured","secured"],"seeds":{"base":1,"count":2},"durationNs":60000000000,"parallel":2}`, &st)
		if code != http.StatusAccepted {
			t.Fatalf("POST /v1/sweeps: status %d", code)
		}
		// The submit response carries no result, and a sweep served from
		// the cache may already be done when it is written: GET at least
		// once.
		deadline := time.Now().Add(30 * time.Second)
		for {
			if code := getJSON(t, ts.URL+"/v1/sweeps/"+st.ID, &st); code != http.StatusOK {
				t.Fatalf("GET sweep: status %d", code)
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if st.State != serve.StateDone || st.Error != "" {
			t.Fatalf("sweep ended %s (error %q), want done", st.State, st.Error)
		}
		return st
	}
	cold := submit()
	if cold.Progress.Cached != 0 || cold.Progress.Done != cold.Progress.Total {
		t.Fatalf("cold sweep progress = %+v, want every run done and none cached", cold.Progress)
	}
	warm := submit()
	if warm.Progress.Cached != warm.Progress.Total || warm.Progress.Done != warm.Progress.Total {
		t.Fatalf("warm sweep progress = %+v, want every run done and cached", warm.Progress)
	}
	if string(warm.Result) != string(cold.Result) {
		t.Fatal("warm-cache sweep result differs from the cold run")
	}
}

// TestQuota: submissions beyond MaxConcurrentJobs are rejected with 429
// until a slot frees up.
func TestQuota(t *testing.T) {
	ts := newTestServer(t, serve.Config{MaxConcurrentJobs: 1})
	var first runStatus
	if code := postJSON(t, ts.URL+"/v1/runs", `{"scenario":"baseline","horizonNs":86400000000000}`, &first); code != http.StatusAccepted {
		t.Fatalf("first submission: status %d", code)
	}
	var errBody apiErrorBody
	if code := postJSON(t, ts.URL+"/v1/runs", `{"scenario":"baseline"}`, &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("submission beyond quota: status %d, want 429", code)
	}
	if errBody.Error.Code != "quota_exceeded" {
		t.Fatalf("quota error code = %q", errBody.Error.Code)
	}
	// Cancel the hog; the slot frees and submissions flow again.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pollRun(t, ts.URL, first.ID, func(s runStatus) bool { return s.State.Terminal() })
	deadline := time.Now().Add(5 * time.Second)
	for {
		var again runStatus
		if code := postJSON(t, ts.URL+"/v1/runs", `{"scenario":"baseline","horizonNs":1000000000}`, &again); code == http.StatusAccepted {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("slot never freed after cancelling the active run")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain: cancelling Serve's context drains cleanly — in-flight
// jobs are cancelled within the drain deadline, no goroutine survives, and
// Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	leakCheck := checkGoroutineLeak(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{DrainTimeout: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	var st runStatus
	if code := postJSON(t, base+"/v1/runs", `{"scenario":"baseline","horizonNs":86400000000000}`, &st); code != http.StatusAccepted {
		t.Fatalf("submission: status %d", code)
	}
	pollRun(t, base, st.ID, func(s runStatus) bool { return s.Events > 0 })

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its context fired")
	}
	if !srv.Draining() {
		t.Fatal("server does not report draining after shutdown")
	}
	if n := srv.ActiveJobs(); n != 0 {
		t.Fatalf("%d jobs still active after drain", n)
	}
	http.DefaultClient.CloseIdleConnections()
	leakCheck()
}

// TestHealthzAndVersion: the probes report liveness, drain state and the
// façade version.
func TestHealthzAndVersion(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	var health struct {
		Status     string `json:"status"`
		Draining   bool   `json:"draining"`
		ActiveJobs int    `json:"activeJobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz = %+v, want status ok, not draining", health)
	}
	var ver struct {
		Version string `json:"version"`
	}
	if code := getJSON(t, ts.URL+"/v1/version", &ver); code != http.StatusOK {
		t.Fatalf("version: status %d", code)
	}
	if ver.Version != worksim.Version {
		t.Fatalf("version = %q, want the façade version %q", ver.Version, worksim.Version)
	}
}

// TestScenariosEndpoint: the catalog listing matches the façade's catalog.
func TestScenariosEndpoint(t *testing.T) {
	ts := newTestServer(t, serve.Config{})
	var got struct {
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
		Profiles []string `json:"profiles"`
	}
	if code := getJSON(t, ts.URL+"/v1/scenarios", &got); code != http.StatusOK {
		t.Fatalf("scenarios: status %d", code)
	}
	names := make([]string, 0, len(got.Scenarios))
	for _, s := range got.Scenarios {
		names = append(names, s.Name)
	}
	if want := worksim.Catalog(); !equalStrings(names, want) {
		t.Fatalf("scenario names = %v, want the catalog %v", names, want)
	}
	if len(got.Profiles) == 0 {
		t.Fatal("no profiles listed")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
