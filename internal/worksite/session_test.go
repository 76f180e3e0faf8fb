package worksite

import (
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/geo"
)

// armSpoof schedules the standard GNSS-spoof burst used across these tests.
func armSpoof(s *Site, onPhase func(attack.PhaseEvent)) {
	c := attack.NewCampaign()
	c.OnPhase = onPhase
	c.Add(2*time.Minute, 8*time.Minute, attack.NewGNSSSpoof(s.ForwarderGNSS(), geo.V(60, 40)))
	c.Schedule(s.Scheduler())
}

// TestSessionReportMatchesLegacyRun: the acceptance criterion — a session
// with subscribed observers produces a Report byte-identical to a bare
// closed-loop session with none, under attack, on the secured profile.
func TestSessionReportMatchesLegacyRun(t *testing.T) {
	const d = 10 * time.Minute
	cfg := DefaultConfig(71)
	cfg.Profile = Secured()

	legacySite, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	armSpoof(legacySite, nil)
	legacyRep, err := (&Session{site: legacySite}).Run(context.Background(), d)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	var events int
	sess.Subscribe(&ObserverFuncs{
		Tick:             func(TickSnapshot) { events++ },
		Alert:            func(AlertRaised) { events++ },
		SecurityResponse: func(SecurityResponse) { events++ },
		ModeChange:       func(ModeChange) { events++ },
		MissionPhase:     func(MissionPhase) { events++ },
		Safety:           func(SafetyEvent) { events++ },
	})
	armSpoof(sess.Site(), func(e attack.PhaseEvent) { sess.EmitAttackPhase(e.At, e.Attack, e.Active) })
	sessRep, err := sess.Run(context.Background(), d)
	if err != nil {
		t.Fatalf("session Run: %v", err)
	}
	if events == 0 {
		t.Fatal("subscribed observer saw no events")
	}

	a, err := json.Marshal(legacyRep)
	if err != nil {
		t.Fatalf("marshal legacy: %v", err)
	}
	b, err := json.Marshal(sessRep)
	if err != nil {
		t.Fatalf("marshal session: %v", err)
	}
	if string(a) != string(b) {
		t.Fatalf("session report differs from legacy Run:\n--- legacy ---\n%s\n--- session ---\n%s", a, b)
	}
}

// TestSessionStepEquivalence: driving a session tick by tick to its horizon
// yields the same report bytes as one bulk RunFor.
func TestSessionStepEquivalence(t *testing.T) {
	const d = 5 * time.Minute
	cfg := DefaultConfig(73)

	bulk, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bulk.SetHorizon(d)
	if err := bulk.RunFor(context.Background(), d); err != nil {
		t.Fatal(err)
	}

	stepped, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepped.SetHorizon(d)
	var last Tick
	steps := 0
	for {
		tick, ok := stepped.Step()
		if !ok {
			break
		}
		if tick.N <= last.N {
			t.Fatalf("tick numbers not increasing: %d after %d", tick.N, last.N)
		}
		if tick.At <= last.At {
			t.Fatalf("tick times not increasing: %v after %v", tick.At, last.At)
		}
		last = tick
		steps++
	}
	if steps == 0 {
		t.Fatal("no steps before horizon")
	}
	if !stepped.Done() {
		t.Fatal("session not done after Step returned false")
	}
	if stepped.Now() != d {
		t.Fatalf("stepped session advanced %v, want %v", stepped.Now(), d)
	}

	a, _ := json.Marshal(bulk.Report())
	b, _ := json.Marshal(stepped.Report())
	if string(a) != string(b) {
		t.Fatalf("stepped report differs from bulk report:\n%s\n%s", a, b)
	}
}

// TestSessionObserverEventStream: the typed events are consistent with the
// final report's counters.
func TestSessionObserverEventStream(t *testing.T) {
	const d = 12 * time.Minute
	cfg := DefaultConfig(37)
	cfg.Profile = Secured()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		ticks, alerts, escalations, modeChanges, missions int
		phases                                            []AttackPhase
	)
	sess.Subscribe(&ObserverFuncs{
		Tick:  func(TickSnapshot) { ticks++ },
		Alert: func(AlertRaised) { alerts++ },
		SecurityResponse: func(r SecurityResponse) {
			if r.Kind == ResponseModeEscalation {
				escalations++
			}
		},
		ModeChange:   func(ModeChange) { modeChanges++ },
		MissionPhase: func(MissionPhase) { missions++ },
		AttackPhase:  func(p AttackPhase) { phases = append(phases, p) },
	})
	c := attack.NewCampaign()
	c.OnPhase = func(e attack.PhaseEvent) { sess.EmitAttackPhase(e.At, e.Attack, e.Active) }
	c.Add(2*time.Minute, 8*time.Minute, attack.NewCommandInjection(
		sess.Site().AttackerAdapter(), NodeCoordinator, NodeForwarder,
		func() []byte {
			return []byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`)
		},
		time.Second))
	c.Schedule(sess.Site().Scheduler())

	rep, err := sess.Run(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}

	// Every control tick is observed exactly once (the count is one short
	// of d/TickPeriod because link association consumes 50ms up front).
	if ticks != sess.site.tickNo {
		t.Fatalf("observed %d ticks, site ran %d", ticks, sess.site.tickNo)
	}
	if approx := int(d / cfg.TickPeriod); ticks < approx-1 || ticks > approx {
		t.Fatalf("observed %d ticks over %v, want about %d", ticks, d, approx)
	}
	var wantAlerts int
	for _, n := range rep.Alerts {
		wantAlerts += n
	}
	if alerts != wantAlerts {
		t.Fatalf("observed %d alerts, report has %d", alerts, wantAlerts)
	}
	if escalations != rep.Metrics.SecurityResponses {
		t.Fatalf("observed %d escalations, report has %d", escalations, rep.Metrics.SecurityResponses)
	}
	if escalations == 0 {
		t.Fatal("injection attack produced no mode escalation events")
	}
	if modeChanges < escalations {
		t.Fatalf("mode changes (%d) < escalations (%d)", modeChanges, escalations)
	}
	if missions == 0 {
		t.Fatal("no mission phase events over a productive run")
	}
	if len(phases) != 2 {
		t.Fatalf("attack phases = %+v, want begin+end", phases)
	}
	if !phases[0].Active || phases[1].Active {
		t.Fatalf("attack phase order wrong: %+v", phases)
	}
	if phases[0].At != 2*time.Minute || phases[1].At != 8*time.Minute {
		t.Fatalf("attack phase times = %v, %v", phases[0].At, phases[1].At)
	}
}

// TestSessionStepAfterRunFor: Step composes with RunFor at any offset —
// after a bulk advance to an arbitrary (non-tick-aligned) time, Step lands
// exactly on the next control tick, with no later events executed.
func TestSessionStepAfterRunFor(t *testing.T) {
	cfg := DefaultConfig(79)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunFor(context.Background(), 45*time.Second+123*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tick, ok := sess.Step()
	if !ok {
		t.Fatal("Step failed after RunFor")
	}
	if sess.Now() != tick.At {
		t.Fatalf("Now() = %v overshoots the returned tick at %v", sess.Now(), tick.At)
	}
	if tick.At <= 45*time.Second || tick.At > 45*time.Second+123*time.Millisecond+cfg.TickPeriod {
		t.Fatalf("tick at %v, want the first tick after the bulk advance", tick.At)
	}
}

// TestSessionRunUntil: a predicate ends the run early and Report covers the
// shortened window.
func TestSessionRunUntil(t *testing.T) {
	const d = 10 * time.Minute
	cfg := DefaultConfig(41)
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.SetHorizon(d)
	stopAt := 90 * time.Second
	stopped, err := sess.RunUntil(context.Background(), func(tk Tick) bool { return tk.At >= stopAt })
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("predicate never fired")
	}
	if sess.Now() < stopAt || sess.Now() > stopAt+cfg.TickPeriod {
		t.Fatalf("stopped at %v, want within one tick of %v", sess.Now(), stopAt)
	}
	if rep := sess.Report(); rep.Duration != sess.Now() {
		t.Fatalf("report duration %v != session time %v", rep.Duration, sess.Now())
	}

	// A predicate that never fires runs to the horizon.
	rest, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rest.SetHorizon(2 * time.Minute)
	stopped, err = rest.RunUntil(context.Background(), func(Tick) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if stopped || rest.Now() != 2*time.Minute {
		t.Fatalf("stopped=%v now=%v, want full horizon", stopped, rest.Now())
	}
}

// TestSessionFailSafeEvents: the GNSS guard's nav-integrity latch surfaces
// as fail-safe safety events.
func TestSessionFailSafeEvents(t *testing.T) {
	cfg := DefaultConfig(47)
	cfg.Profile = Secured()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var engaged, released int
	sess.Subscribe(&ObserverFuncs{Safety: func(e SafetyEvent) {
		switch e.Kind {
		case SafetyFailSafeEngaged:
			engaged++
		case SafetyFailSafeReleased:
			released++
		}
	}})
	armSpoof(sess.Site(), nil)
	if _, err := sess.Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if engaged == 0 {
		t.Fatal("spoofing never engaged the nav fail-safe")
	}
	if released == 0 {
		t.Fatal("fail-safe never released after the attack window")
	}
}

// TestZeroWorkersReportMarshals: without workers MinWorkerDistM has no
// minimum; the report must marshal (the +Inf regression) and record -1.
func TestZeroWorkersReportMarshals(t *testing.T) {
	cfg := DefaultConfig(59)
	cfg.Workers = 0
	rep := runSite(t, cfg, 2*time.Minute, nil)
	if rep.Metrics.MinWorkerDistM != -1 {
		t.Fatalf("MinWorkerDistM = %v, want -1 sentinel", rep.Metrics.MinWorkerDistM)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("zero-worker report does not marshal: %v", err)
	}
}

// TestEarlyReportDoesNotCorruptMetrics: reading a Report before any tick
// (MinWorkerDistM still +Inf) must not poison the live accumulator — a
// later Report still carries the true minimum.
func TestEarlyReportDoesNotCorruptMetrics(t *testing.T) {
	sess, err := NewSession(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if early := sess.Report(); early.Metrics.MinWorkerDistM != -1 {
		t.Fatalf("pre-tick MinWorkerDistM = %v, want -1 sentinel", early.Metrics.MinWorkerDistM)
	}
	rep, err := sess.Run(context.Background(), 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.MinWorkerDistM <= 0 {
		t.Fatalf("MinWorkerDistM = %v after running, early Report poisoned the accumulator", rep.Metrics.MinWorkerDistM)
	}
}

// TestTickSnapshotMarshals: every tick snapshot is JSON-safe, including on
// a worker-less site (the -trace stream guarantee).
func TestTickSnapshotMarshals(t *testing.T) {
	cfg := DefaultConfig(61)
	cfg.Workers = 0
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess.SetHorizon(time.Minute)
	for {
		tick, ok := sess.Step()
		if !ok {
			break
		}
		if math.IsInf(tick.MinWorkerDistM, 0) || math.IsNaN(tick.MinWorkerDistM) {
			t.Fatalf("tick %d carries non-finite MinWorkerDistM", tick.N)
		}
		if _, err := json.Marshal(tick); err != nil {
			t.Fatalf("tick %d does not marshal: %v", tick.N, err)
		}
	}
}
