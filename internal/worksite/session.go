package worksite

import (
	"context"
	"fmt"
	"time"
)

// Session is a steppable handle on a commissioned worksite simulation. It
// owns the progression of virtual time — step one control tick at a time,
// advance in bulk with RunFor, or drive until a predicate fires — and fans
// the typed event stream (TickSnapshot, AlertRaised, AttackPhase,
// SecurityResponse, ModeChange, MissionPhase, SafetyEvent) out to
// subscribed observers.
//
// Determinism contract: observers are passive taps on the simulation loop,
// so a session produces a Report byte-identical to a bare closed-loop
// Run(ctx, d) for the same config, however its time was advanced and
// whatever was subscribed.
type Session struct {
	site    *Site
	elapsed time.Duration // virtual time advanced so far (absolute)
	horizon time.Duration // 0 = unbounded
	stopped bool
	err     error // scheduler stop, sticky once set
}

// NewSession commissions a worksite from cfg and returns a steppable
// session over it. No virtual time has elapsed beyond commissioning; call
// Step, RunFor or RunUntil to advance.
func NewSession(cfg Config) (*Session, error) {
	site, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Session{site: site}, nil
}

// Site returns the underlying worksite, e.g. for attack arming, map
// rendering or accessor queries. Mutating it mid-run breaks the determinism
// contract unless the mutation is itself scheduled (the attack framework's
// approach).
func (se *Session) Site() *Site { return se.site }

// Subscribe registers an observer for the session's event stream.
func (se *Session) Subscribe(o Observer) { se.site.Subscribe(o) }

// Now returns how much virtual time the session has advanced.
func (se *Session) Now() time.Duration { return se.elapsed }

// SetHorizon bounds the session at d of virtual time: Step and RunUntil
// report done once it is reached, and RunFor clamps to it. Zero removes the
// bound. scenario.Build sets the horizon to the scenario duration.
func (se *Session) SetHorizon(d time.Duration) { se.horizon = d }

// Horizon returns the configured bound (0 = unbounded).
func (se *Session) Horizon() time.Duration { return se.horizon }

// Done reports whether the session has reached its horizon (never true
// while unbounded) or was stopped by the scheduler.
func (se *Session) Done() bool {
	return se.stopped || (se.horizon > 0 && se.elapsed >= se.horizon)
}

// Err returns the sticky scheduler-stop error, nil while the session only
// ran to its horizon. Check it after Step returns false to distinguish a
// completed run from a stopped one.
func (se *Session) Err() error { return se.err }

// Step advances the simulation to exactly the next control tick and
// returns its snapshot, so Now() equals the returned tick's time and no
// later event has run yet — Step composes with RunFor at any offset. It
// reports false — with the last completed tick, after draining events up
// to the horizon — once the horizon is reached or the scheduler was
// stopped (see Err).
func (se *Session) Step() (Tick, bool) {
	if se.Done() {
		return se.site.lastTick, false
	}
	next := se.site.firstTickAt + time.Duration(se.site.tickNo)*se.site.cfg.TickPeriod
	if next <= se.elapsed {
		// Defensive: never run backwards.
		next = se.elapsed + se.site.cfg.TickPeriod
	}
	if se.horizon > 0 && next > se.horizon {
		// No full tick left before the horizon; drain the remainder.
		if err := se.advanceTo(se.horizon); err != nil {
			return se.site.lastTick, false
		}
		return se.site.lastTick, false
	}
	if err := se.advanceTo(next); err != nil {
		return se.site.lastTick, false
	}
	return se.site.lastTick, true
}

// advanceTo runs the scheduler to the absolute virtual time target,
// recording a scheduler stop in the session's sticky error.
func (se *Session) advanceTo(target time.Duration) error {
	if err := se.site.sched.Run(target); err != nil {
		se.stopped = true
		se.err = fmt.Errorf("worksite run: %w", err)
		return se.err
	}
	se.elapsed = target
	return nil
}

// RunFor advances the simulation by d of virtual time (clamped to the
// horizon when one is set), firing all scheduled events and observer
// notifications on the way.
//
// The context bounds wall-clock execution: between control ticks the session
// checks ctx and returns ctx.Err() as soon as it is cancelled or past its
// deadline, leaving the session stopped at the last completed tick (still
// steppable, reportable over the time actually advanced). A context that
// never fires — including context.Background() — yields byte-identical
// results to an uncancellable run: cancellation is observed only between
// ticks, never inside one, so the event stream up to the stopping point is
// the same either way.
func (se *Session) RunFor(ctx context.Context, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("worksite session: negative duration %v", d)
	}
	target := se.elapsed + d
	if se.horizon > 0 && target > se.horizon {
		target = se.horizon
	}
	if target <= se.elapsed {
		return nil
	}
	if ctx == nil || ctx.Done() == nil {
		// Nothing can ever cancel this context: advance in one stride,
		// exactly the pre-context execution path.
		return se.advanceTo(target)
	}
	//worksim:tickloop
	for se.elapsed < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := se.site.firstTickAt + time.Duration(se.site.tickNo)*se.site.cfg.TickPeriod
		if next <= se.elapsed {
			next = se.elapsed + se.site.cfg.TickPeriod
		}
		if next > target {
			next = target
		}
		if err := se.advanceTo(next); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil steps tick by tick until stop returns true for a snapshot, the
// horizon is reached, the context fires, or the scheduler stops. It reports
// whether the predicate fired — the campaign layer's early-stop primitive. A
// horizon is required (the control loop reschedules forever, so a predicate
// that never fires would otherwise spin unboundedly); a nil predicate runs
// straight to the horizon. Like RunFor, cancellation is observed between
// ticks and surfaces as ctx.Err().
func (se *Session) RunUntil(ctx context.Context, stop func(Tick) bool) (bool, error) {
	if se.horizon <= 0 {
		return false, fmt.Errorf("worksite session: RunUntil requires a horizon (SetHorizon)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if stop == nil {
		return false, se.RunFor(ctx, se.horizon-se.elapsed)
	}
	cancellable := ctx.Done() != nil
	//worksim:tickloop
	for {
		if cancellable {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		tick, ok := se.Step()
		if !ok {
			return false, se.err
		}
		if stop(tick) {
			return true, nil
		}
	}
}

// Report finalises and returns the report over the time advanced so far.
// The session remains steppable afterwards; a later Report covers the
// longer window.
func (se *Session) Report() Report { return se.site.report(se.elapsed) }

// Run is the convenience closed loop: RunFor(ctx, d) then Report.
func (se *Session) Run(ctx context.Context, d time.Duration) (Report, error) {
	if err := se.RunFor(ctx, d); err != nil {
		return Report{}, err
	}
	return se.Report(), nil
}

// EmitAttackPhase injects an attack-phase event into the event stream. The
// attack campaign lives a layer above the worksite (the scenario package
// arms and schedules it), so phase transitions enter the stream through
// this seam rather than a site-internal hook.
func (se *Session) EmitAttackPhase(at time.Duration, attack string, active bool) {
	se.site.publish(AttackPhase{At: at, Attack: attack, Active: active})
}
