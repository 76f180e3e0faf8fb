package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/worksim"
	"repro/worksim/event"
	"repro/worksim/trace"
)

// probeBudget is how long each layer probe calls its function.
const probeBudget = 150 * time.Millisecond

// A probe times repeated calls to one layer's public function on real
// state. Its metric is the median call time.
type probe struct {
	metric string
	unit   time.Duration
	// prepare builds the state and returns the call to time; dir is an
	// empty scratch directory.
	prepare func(dir string, seed int64) (func() error, error)
}

var probes = []probe{
	{"commission.batch_ms", time.Millisecond, probeCommission},
	{"worksite.step_us", time.Microsecond, probeStep},
	{"resultcache.put_us", time.Microsecond, probeCachePut},
	{"resultcache.get_us", time.Microsecond, probeCacheGet},
	{"tracefmt.marshal_us", time.Microsecond, probeMarshal},
}

// runProbes runs every probe and returns its metric.
func runProbes(dir string, seed int64, tr *tracer) (map[string]float64, error) {
	out := make(map[string]float64, len(probes))
	for i, p := range probes {
		call, err := p.prepare(filepath.Join(dir, p.metric), seed)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.metric, err)
		}
		sp := tr.start("probe."+p.metric, 0, int64(i))
		var times []float64
		for start := clock(); len(times) < 3 || clock()-start < probeBudget; {
			t0 := clock()
			if err := call(); err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.metric, err)
			}
			times = append(times, float64(clock()-t0)/float64(p.unit))
		}
		sp.end()
		out[p.metric] = median(times)
	}
	return out, nil
}

// probeCommission commissions the secured baseline: key generation,
// issuance and handshakes, the cost a sweep cell or a daemon run pays once.
func probeCommission(string, int64) (func() error, error) {
	spec := worksim.Baseline().WithProfile(worksim.Secured())
	return func() error {
		_, err := scenario.NewBatch(spec)
		return err
	}, nil
}

// probeStep advances a secured multi-attack session one control tick at a
// time, past a minute of warm-up, opening a fresh session at the horizon.
func probeStep(_ string, seed int64) (func() error, error) {
	spec, err := worksim.Lookup("multi-attack")
	if err != nil {
		return nil, err
	}
	open := func() (*worksim.Session, error) {
		s, err := worksim.Open(spec, worksim.WithSeed(seed), worksim.WithProfile(worksim.Secured()))
		if err != nil {
			return nil, err
		}
		for s.Now() < time.Minute {
			if _, ok := s.Step(); !ok {
				return nil, fmt.Errorf("session ended during warm-up: %v", s.Err())
			}
		}
		return s, nil
	}
	s, err := open()
	if err != nil {
		return nil, err
	}
	return func() error {
		if _, ok := s.Step(); ok {
			return nil
		}
		if err := s.Err(); err != nil {
			return err
		}
		next, err := open()
		s = next
		return err
	}, nil
}

// cacheRecord mirrors the record a sweep stores per run.
type cacheRecord struct {
	Metrics map[string]float64 `json:"metrics"`
}

// cacheFixture opens a cache and returns it with a real run's record and
// the key of the record stored under seed.
func cacheFixture(dir string, seed int64) (*resultcache.Cache, cacheRecord, func(int64) resultcache.Key, error) {
	c, err := resultcache.Open(dir)
	if err != nil {
		return nil, cacheRecord{}, nil, err
	}
	res, err := worksim.Sweep(context.Background(), worksim.SweepOptions{
		Scenarios: []string{"baseline"}, Profiles: []string{"secured"},
		Seeds: worksim.SeedRange{Base: seed, Count: 1}, Parallel: 1, Duration: time.Minute,
	})
	if err != nil {
		return nil, cacheRecord{}, nil, err
	}
	rec := cacheRecord{Metrics: res.Cells[0].Result.PerSeed[0].Metrics}
	hash, err := worksim.SpecHash(worksim.Baseline().WithProfile(worksim.Secured()))
	if err != nil {
		return nil, cacheRecord{}, nil, err
	}
	key := func(s int64) resultcache.Key {
		return resultcache.Key{SpecHash: hash, Profile: "secured", Seed: s,
			DurationNs: int64(time.Minute), Engine: worksim.Version}
	}
	return c, rec, key, nil
}

// probeCachePut stores a run record under a new key per call.
func probeCachePut(dir string, seed int64) (func() error, error) {
	c, rec, key, err := cacheFixture(dir, seed)
	if err != nil {
		return nil, err
	}
	n := int64(0)
	return func() error {
		n++
		return c.Put(key(n), rec)
	}, nil
}

// probeCacheGet reads back a fixed set of stored records in turn; every
// call must be a verified hit.
func probeCacheGet(dir string, seed int64) (func() error, error) {
	c, rec, key, err := cacheFixture(dir, seed)
	if err != nil {
		return nil, err
	}
	const entries = 256
	for i := int64(0); i < entries; i++ {
		if err := c.Put(key(i), rec); err != nil {
			return nil, err
		}
	}
	n := int64(0)
	return func() error {
		var got cacheRecord
		hit, err := c.Get(key(n%entries), &got)
		n++
		if err == nil && !hit {
			err = fmt.Errorf("entry %d missed", (n-1)%entries)
		}
		return err
	}, nil
}

// probeMarshal encodes a recorded event stream, one event per call.
func probeMarshal(_ string, seed int64) (func() error, error) {
	spec, err := worksim.Lookup("multi-attack")
	if err != nil {
		return nil, err
	}
	var events []event.Event
	s, err := worksim.Open(spec, worksim.WithSeed(seed), worksim.WithHorizon(2*time.Minute),
		worksim.WithProfile(worksim.Secured()),
		worksim.WithObserver(trace.Observer(func(e event.Event) { events = append(events, e) })))
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(context.Background()); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("the run published no events")
	}
	n := 0
	return func() error {
		_, err := trace.Marshal(events[n%len(events)])
		n++
		return err
	}, nil
}
