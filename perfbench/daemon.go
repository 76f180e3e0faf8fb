package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/worksim"
	"repro/worksim/serve"
)

// apiKey is the one key the benchmark's daemon accepts.
const apiKey = "perfbench-key"

// requestTimeout bounds one HTTP exchange, event stream included; a request
// normally takes milliseconds.
const requestTimeout = 30 * time.Second

// daemonRuns drives worksimd's run lifecycle the way independent users do:
// an open loop of submit, stream and fetch requests over loopback HTTP.
func daemonRuns() *workload {
	return &workload{
		name:     "daemon-runs",
		why:      "open loop at 100 runs/s of submit, SSE stream and fetch against the daemon: per-request commissioning, event encoding and HTTP show",
		openLoop: true,
		prepare: func(rc *repContext) (*repetition, error) {
			d, err := startDaemon(rc)
			if err != nil {
				return nil, err
			}
			return &repetition{run: d.openLoop, check: d.check, teardown: d.close}, nil
		},
	}
}

// daemon is one repetition's server, client and recorded outputs.
type daemon struct {
	rc     *repContext
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client

	// refs are the digests of the in-process reports of every
	// checkEvery-th request.
	refs [][sha256.Size]byte
}

// startDaemon starts a server on a loopback listener and a client that
// opens at most GOMAXPROCS connections to it, and computes the references.
func startDaemon(rc *repContext) (*daemon, error) {
	srv := serve.New(serve.Config{APIKeys: []string{apiKey}, RatePerSec: -1})
	conns := runtime.GOMAXPROCS(0)
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	d := &daemon{
		rc:     rc,
		ts:     httptest.NewServer(srv.Handler()),
		tr:     tr,
		client: &http.Client{Transport: tr, Timeout: requestTimeout},
	}
	if _, err := d.call(http.MethodGet, "/v1/healthz", "", http.StatusOK); err != nil {
		d.close()
		return nil, err
	}
	if err := d.references(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.tr.CloseIdleConnections()
	d.ts.Close()
}

// request describes request i of a repetition: catalog scenarios rotate and
// profiles alternate, so every request differs.
func (d *daemon) request(i int) (scenario, profile string, seed int64) {
	names, profiles := worksim.Catalog(), worksim.Profiles()
	return names[i%len(names)], profiles[i%len(profiles)], d.rc.seed + int64(i)
}

// openLoop sends the repetition's requests on a fixed schedule, whether or
// not earlier ones have finished, and waits for all of them. Each request's
// latency runs from the time it was due, so a stall is charged to every
// request it delays; how late the generator itself sent is recorded apart.
func (d *daemon) openLoop(rec *recorder) error {
	interval := time.Duration(float64(time.Second) / d.rc.sz.rate)
	start := clock()
	var wg sync.WaitGroup
	for i := 0; i < d.rc.sz.requests; i++ {
		due := start + time.Duration(i)*interval
		if wait := due - clock(); wait > 0 {
			time.Sleep(wait)
		}
		rec.lag(clock() - due)
		wg.Add(1)
		go func(i int, due time.Duration) {
			defer wg.Done()
			report, events, err := d.roundTrip(rec, i)
			rec.op(i, 1, clock()-due, report, err)
			if err != nil {
				return
			}
			rec.count("serve_events", float64(events))
		}(i, due)
	}
	wg.Wait()
	return nil
}

// roundTrip is one user's request: submit a run, follow its event stream to
// the end, then fetch its report. It returns the report and the number of
// events streamed.
func (d *daemon) roundTrip(rec *recorder, i int) ([]byte, int, error) {
	req := rec.tr.start("request", 0, int64(i))
	defer req.end()

	scenario, profile, seed := d.request(i)
	body := fmt.Sprintf(`{"scenario":%q,"profile":%q,"seed":%d,"horizonNs":%d}`,
		scenario, profile, seed, int64(d.rc.sz.shortHorizon))
	sp := rec.tr.start("http.submit", req.id, int64(i))
	resp, err := d.call(http.MethodPost, "/v1/runs", body, http.StatusAccepted)
	sp.end()
	if err != nil {
		var se *statusError
		if errors.As(err, &se) {
			rec.count("serve_refused", 1)
		}
		return nil, 0, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(resp, &sub); err != nil || sub.ID == "" {
		return nil, 0, fmt.Errorf("submit: bad response %q", resp)
	}

	sp = rec.tr.start("http.stream", req.id, int64(i))
	events, err := d.stream(sub.ID)
	sp.end()
	if err != nil {
		return nil, 0, err
	}

	sp = rec.tr.start("http.fetch", req.id, int64(i))
	resp, err = d.call(http.MethodGet, "/v1/runs/"+sub.ID, "", http.StatusOK)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	var st struct {
		State  string
		Report json.RawMessage
	}
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, 0, fmt.Errorf("fetch: %w", err)
	}
	if st.State != string(serve.StateDone) || len(st.Report) == 0 {
		return nil, 0, fmt.Errorf("run %s ended %q without a report", sub.ID, st.State)
	}
	return st.Report, events, nil
}

// statusError is a response with an unexpected HTTP status.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one authenticated request.
func (d *daemon) do(method, path, body string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+apiKey)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return d.client.Do(req)
}

// call sends one authenticated request and returns the response body,
// failing on any status other than want.
func (d *daemon) call(method, path, body string, want int) ([]byte, error) {
	resp, err := d.do(method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %w", method, path, &statusError{resp.StatusCode, string(out)})
	}
	return out, nil
}

// stream follows a run's SSE feed until its `event: end` frame and returns
// how many events came before it.
func (d *daemon) stream(id string) (int, error) {
	resp, err := d.do(http.MethodGet, "/v1/runs/"+id+"/events", "")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{resp.StatusCode, "event stream"}
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	events := 0
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			continue // the tail of a long data line
		}
		if err != nil {
			return events, fmt.Errorf("event stream of %s ended before its end frame: %w", id, err)
		}
		kind, ok := bytes.CutPrefix(line, []byte("event: "))
		if !ok {
			continue
		}
		if string(bytes.TrimSpace(kind)) == "end" {
			break
		}
		events++
	}
	// Drain the rest of the response so the connection is reused.
	_, err = io.Copy(io.Discard, br)
	return events, err
}

// references runs every checkEvery-th request in process, through the
// worksim façade; the daemon's report for it must match byte for byte.
func (d *daemon) references() error {
	for i := 0; i < d.rc.sz.requests; i += d.rc.sz.checkEvery {
		scenario, profile, seed := d.request(i)
		spec, err := worksim.Lookup(scenario)
		if err != nil {
			return err
		}
		prof, err := worksim.ResolveProfile(profile)
		if err != nil {
			return err
		}
		sess, err := worksim.Open(spec, worksim.WithSeed(seed),
			worksim.WithHorizon(d.rc.sz.shortHorizon), worksim.WithProfile(prof))
		if err != nil {
			return err
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			return err
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		d.refs = append(d.refs, sha256.Sum256(want))
	}
	return nil
}

// check compares the reports with their references, then records how many
// jobs the daemon retains.
func (d *daemon) check(rec *recorder) error {
	for k, ref := range d.refs {
		if err := checkDigest(rec, k*d.rc.sz.checkEvery, ref); err != nil {
			return err
		}
	}
	list, err := d.call(http.MethodGet, "/v1/runs", "", http.StatusOK)
	if err != nil {
		return err
	}
	var runs struct{ Runs []json.RawMessage }
	if err := json.Unmarshal(list, &runs); err != nil {
		return fmt.Errorf("list runs: %w", err)
	}
	rec.count("serve_retained_jobs", float64(len(runs.Runs)))
	return nil
}
