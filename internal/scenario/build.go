package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/worksite"
)

// Build compiles a spec into a steppable worksite session and its scheduled
// attack campaign. The attack schedule is resolved against d (window
// fractions become simulated times), armed through the registry, installed
// on the site's scheduler, and wired into the session's event stream, so a
// subscriber sees AttackPhase events interleaved with the per-tick
// snapshots. The session's horizon is d: callers either close the loop with
// sess.Run(ctx, d) / RunFor(ctx, d), or drive it tick by tick with Step /
// RunUntil.
// The returned campaign exposes the window and phase logs for reports.
func Build(spec Spec, seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	return buildShared(spec, nil, nil, seed, d)
}

// buildShared is Build with an optional shared security bundle (see Batch):
// identical compilation, but the session adopts the batch's commissioned
// PKI/channel state instead of re-running keygen and handshakes.
func buildShared(spec Spec, sh *worksite.SharedSecurity, slab *rng.Slab, seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	if d <= 0 {
		return nil, nil, fmt.Errorf("scenario %q: duration must be positive, got %v", spec.Name, d)
	}
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	sess, err := worksite.NewSessionShared(spec.Config(seed), sh, slab)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sess.SetHorizon(d)
	site := sess.Site()
	c := attack.NewCampaign()
	c.OnPhase = func(e attack.PhaseEvent) {
		sess.EmitAttackPhase(e.At, e.Attack, e.Active)
	}
	for i, a := range spec.Attacks {
		cls, ok := lookupAttack(a.Name)
		if !ok {
			// Validate caught unknown names already; keep the guard for
			// specs mutated after validation.
			return nil, nil, fmt.Errorf("scenario %q: attacks[%d]: unknown attack class %q", spec.Name, i, a.Name)
		}
		ctx := ArmContext{
			Site:     site,
			Campaign: c,
			Start:    time.Duration(a.StartFrac * float64(d)),
			Stop:     time.Duration(a.StopFrac * float64(d)),
			Duration: d,
			Params:   a.Params,
		}
		if err := cls.arm(ctx); err != nil {
			return nil, nil, fmt.Errorf("scenario %q: arm %s: %w", spec.Name, a.Name, err)
		}
	}
	c.Schedule(site.Scheduler())
	return sess, c, nil
}

// Run builds the spec and executes it for d of simulated time. The context
// bounds wall-clock execution (see worksite.Session.RunFor): a cancelled or
// expired context ends the run between ticks with ctx.Err(), and a context
// that never fires leaves the result byte-identical to an uncancellable run.
func Run(ctx context.Context, spec Spec, seed int64, d time.Duration) (worksite.Report, error) {
	sess, _, err := Build(spec, seed, d)
	if err != nil {
		return worksite.Report{}, err
	}
	rep, err := sess.Run(ctx, d)
	if err != nil {
		return worksite.Report{}, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return rep, nil
}
