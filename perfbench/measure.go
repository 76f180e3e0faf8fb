package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// epoch anchors clock.
var epoch = time.Now()

// clock returns the monotonic time elapsed since the benchmark started. It is
// the harness's only wall-clock read: every span, latency, rate, schedule and
// deadline goes through it, so the timing of the benchmark has one place to
// audit.
func clock() time.Duration { return time.Since(epoch) }

// cpuTime returns the process's user plus system CPU time from getrusage. It
// covers every thread, so the daemon workload's server and client are both
// counted.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF cannot fail on Linux; a zero reading would make every
		// CPU metric 0, which the result check rejects.
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the numpy default), or 0 for an empty slice. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio divides, returning 0 instead of a NaN or an infinity when the
// denominator is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
