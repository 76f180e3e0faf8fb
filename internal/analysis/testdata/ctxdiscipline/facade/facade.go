//worksimtest:importpath repro/worksim/fixture

// Package fixture exercises the ctxdiscipline analyzer: exported façade
// signatures, and the cancellation check and host-sleep ban in
// //worksim:tickloop loops.
package fixture

import (
	"context"
	"time"
)

// Drain spins unboundedly with no cancellation seam.
func Drain(step func() bool) { // want `unbounded loop but takes no context\.Context`
	for {
		if step() {
			return
		}
	}
}

// Misplaced buries the context behind another parameter.
func Misplaced(n int, ctx context.Context) error { // want `context\.Context must be the first parameter`
	_ = n
	return ctx.Err()
}

// Run is the disciplined shape: leading ctx, cancellation checked per tick.
func Run(ctx context.Context, n int) error {
	//worksim:tickloop
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Spin drops the per-iteration cancellation check from a marked tick loop.
func Spin(ctx context.Context) {
	done := false
	//worksim:tickloop
	for !done { // want `must check cancellation each iteration`
		done = true
	}
	_ = ctx
}

// Throttle stalls a tick loop on host time; sleeping outside one is clean.
func Throttle(ctx context.Context, ticks <-chan struct{}) {
	//worksim:tickloop
	for range ticks {
		if ctx.Err() != nil {
			return
		}
		time.Sleep(time.Millisecond) // want `time\.Sleep inside a //worksim:tickloop loop`
	}
	for range ticks {
		time.Sleep(time.Millisecond) // clean: not a tick loop
	}
}

// Pump is suppressed: the caller owns cancellation one layer up.
func Pump(step func() bool) { //worksim:allow fixture: caller-bounded pump, the cancellation seam lives one layer up
	for {
		if step() {
			return
		}
	}
}

// claim is unexported, so only the tickloop rule applies; the suppression on
// the loop line keeps it clean.
func claim(stop func() bool) {
	//worksim:tickloop
	for { //worksim:allow fixture: the stop predicate is the cancellation seam here
		if stop() {
			return
		}
	}
}
