package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The benchmark runs on machines shared with other tenants, whose load makes
// the same code 20 to 50% slower for minutes at a time. A fixed piece of work
// that uses no repository code (the calibration pass) runs before every
// repetition; the median pass time of a run tells how fast the machine was
// while the run measured. Time metrics are reported scaled to a reference
// machine on which a pass takes calibrationRef, which takes the machine's
// speed out of them: across 20-second windows of a slow spell and a quiet one,
// sweep times varied by 13 to 16% (quartile spread over median) and
// calibrated sweep times by 3 to 4%. The raw pass time is reported as the
// per-layer metric bench.calibration_ms, so every raw time can be recovered.

// calibrationRef is the median time of one calibration pass on the reference
// machine, a 2-vCPU Intel Xeon virtual machine at 2.0 GHz.
const calibrationRef = 25 * time.Millisecond

// calibrationPasses is how many passes run before each repetition.
const calibrationPasses = 6

// calibrate runs the calibration passes, each from a collected heap, and
// returns their times.
func calibrate() []float64 {
	out := make([]float64, 0, calibrationPasses)
	for i := 0; i < calibrationPasses; i++ {
		runtime.GC()
		t0 := clock()
		calibrationSink += calibrationPass()
		out = append(out, ms(clock()-t0))
	}
	return out
}

// calibrationSink keeps the compiler from discarding calibration work.
var calibrationSink float64

// calibrationMsg is the record the calibration pass encodes and decodes.
type calibrationMsg struct {
	ID     int               `json:"id"`
	Kind   string            `json:"kind"`
	Pos    [3]float64        `json:"pos"`
	Vals   []float64         `json:"vals"`
	Labels map[string]string `json:"labels"`
}

// calibrationPass is a fixed mix of the kinds of work the simulator does:
// JSON encoding and decoding with allocation, sorting, map updates and
// floating-point math.
func calibrationPass() float64 {
	rng := rand.New(rand.NewSource(1))
	var acc float64
	m := calibrationMsg{Kind: "tick", Labels: map[string]string{"a": "x", "b": "y"}}
	for i := 0; i < 16; i++ {
		m.Vals = append(m.Vals, rng.Float64())
	}
	for i := 0; i < 1200; i++ {
		m.ID = i
		m.Pos = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		b, err := json.Marshal(m)
		if err != nil {
			panic(err) // a fixed struct of plain fields always encodes
		}
		var o calibrationMsg
		if err := json.Unmarshal(b, &o); err != nil {
			panic(err)
		}
		acc += o.Pos[0]
	}
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	sums := make(map[int]float64)
	for _, x := range xs {
		sums[rng.Intn(4096)] += x
	}
	for i := 0; i < 400000; i++ {
		x := float64(i)
		acc += math.Sqrt(x) * math.Sin(x) / (1 + math.Abs(math.Cos(x)))
	}
	return acc + sums[7]
}
