package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrink every workload to a few operations of one simulated
// minute.
var smokeSizes = sizes{
	wideOps: 1, deepOps: 1, deepSeeds: 2, warmOps: 2, warmSeeds: 1,
	requests: 4, rate: 200, checkEvery: 2,
	horizon: time.Minute, shortHorizon: time.Minute,
}

// report is the JSON object the benchmark prints last.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs one small repetition of every workload, untraced and
// traced, and requires no failure and every metric for every workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 7, budget: time.Millisecond, traced: traced, dir: t.TempDir(), sz: smokeSizes, minReps: 1}
		var out bytes.Buffer
		ok, err := run(&out, workloads(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
		}
		if !ok || !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("traced=%t: ok=%t correct=%t attempted=%d failed=%d\n%s",
				traced, ok, rep.Correct, rep.Attempted, rep.Failed, out.String())
		}
		defs := endToEndMetrics
		if traced {
			defs = perLayerMetrics
		}
		want := make(map[string]string)
		for _, w := range workloads() {
			for _, d := range defs {
				want[w.name+"/"+d.Name] = d.Unit
			}
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("traced=%t: %d metrics emitted, want %d", traced, len(rep.Metrics), len(want))
		}
		shareSums := make(map[string]float64)
		for key, unit := range want {
			m, ok := rep.Metrics[key]
			if !ok {
				t.Errorf("traced=%t: metric %s not emitted", traced, key)
				continue
			}
			if m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("traced=%t: %s = %v %s, want a finite value in %s", traced, key, m.Value, m.Unit, unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("%s = %v; end-to-end metrics are never 0", key, m.Value)
			}
			if strings.HasSuffix(key, ".cpu_share") {
				shareSums[strings.SplitN(key, "/", 2)[0]] += m.Value
			}
		}
		for w, sum := range shareSums {
			// A workload too small to catch a profiling tick has no samples.
			if sum != 0 && math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: layer shares sum to %v, want 1", w, sum)
			}
		}
	}
}

// TestBenchmarkJSONMatchesHarness requires BENCHMARK.json at the repository
// root to name exactly the workloads and metrics the harness emits, with the
// same units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantNames, wantWhys []string
	for _, w := range workloads() {
		wantNames = append(wantNames, w.name)
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("workloads:\n%q\n%q\nwant\n%q\n%q", names, whys, wantNames, wantWhys)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end:\n%+v\nwant\n%+v", doc.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer:\n%+v\nwant\n%+v", doc.PerLayer, perLayerMetrics)
	}
}
