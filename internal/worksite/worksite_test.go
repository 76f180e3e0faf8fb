package worksite

import (
	"context"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/geo"
	"repro/internal/radio"
)

// DefaultConfig returns the E1 baseline scenario: a 400x400 m site, moderate
// forest, three workers, clear weather, drone on, secured stack off.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Cols:         100,
		Rows:         100,
		CellSizeM:    4,
		TreeDensity:  0.22,
		RockDensity:  0.03,
		Workers:      3,
		ConfirmHits:  2,
		DroneEnabled: true,
		LoadTime:     45 * time.Second,
		UnloadTime:   30 * time.Second,
		TickPeriod:   500 * time.Millisecond,
	}
}

func runSite(t *testing.T, cfg Config, d time.Duration, arm func(*Site)) Report {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if arm != nil {
		arm(s)
	}
	rep, err := (&Session{site: s}).Run(context.Background(), d)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestBaselineProductivity(t *testing.T) {
	cfg := DefaultConfig(42)
	rep := runSite(t, cfg, 30*time.Minute, nil)
	if rep.Metrics.LogsDelivered < 2 {
		t.Fatalf("logs delivered = %d, want >= 2 in 30 min", rep.Metrics.LogsDelivered)
	}
	if rep.Metrics.Collisions != 0 {
		t.Fatalf("collisions = %d, want 0 with working safety function", rep.Metrics.Collisions)
	}
	if rep.Metrics.DistanceM < 100 {
		t.Fatalf("distance = %.0f m, forwarder barely moved", rep.Metrics.DistanceM)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig(7)
	a := runSite(t, cfg, 10*time.Minute, nil)
	b := runSite(t, cfg, 10*time.Minute, nil)
	if a.Metrics != b.Metrics {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := runSite(t, DefaultConfig(1), 10*time.Minute, nil)
	b := runSite(t, DefaultConfig(2), 10*time.Minute, nil)
	if a.Metrics == b.Metrics {
		t.Fatal("different seeds produced identical metrics (suspicious)")
	}
}

func TestSecuredBaselineStillProductive(t *testing.T) {
	cfg := DefaultConfig(42)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 30*time.Minute, nil)
	if rep.Metrics.LogsDelivered < 2 {
		t.Fatalf("secured site delivered %d logs, want >= 2 (defences must not break ops)",
			rep.Metrics.LogsDelivered)
	}
	if rep.Metrics.Collisions != 0 {
		t.Fatalf("collisions = %d", rep.Metrics.Collisions)
	}
}

func TestGNSSSpoofingUnguardedCausesNavError(t *testing.T) {
	cfg := DefaultConfig(11)
	rep := runSite(t, cfg, 20*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(2*time.Minute, 18*time.Minute,
			attack.NewGNSSSpoof(s.ForwarderGNSS(), geo.V(60, 40)))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.NavErrMaxM < 40 {
		t.Fatalf("max nav error = %.1f m under 72 m spoof, want large", rep.Metrics.NavErrMaxM)
	}
}

func TestGNSSSpoofingGuardedFailsSafe(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 20*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(2*time.Minute, 18*time.Minute,
			attack.NewGNSSSpoof(s.ForwarderGNSS(), geo.V(60, 40)))
		c.Schedule(s.Scheduler())
	})
	// The guard rejects the spoofed fixes: believed position freezes at the
	// last trusted value, so nav error stays bounded by real motion, and the
	// nav-integrity latch parks the machine.
	if rep.Metrics.NavErrMaxM > 20 {
		t.Fatalf("guarded nav error = %.1f m, want bounded", rep.Metrics.NavErrMaxM)
	}
	if rep.Metrics.StoppedFor == 0 {
		t.Fatal("guarded machine never entered fail-safe stop under spoofing")
	}
	if rep.Alerts["gnss-anomaly"] == 0 {
		t.Fatalf("IDS alerts = %v, want gnss-anomaly", rep.Alerts)
	}
}

func TestCommandInjectionUnsecuredAccepted(t *testing.T) {
	cfg := DefaultConfig(13)
	rep := runSite(t, cfg, 10*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(time.Minute, 9*time.Minute, attack.NewCommandInjection(
			s.AttackerAdapter(), NodeCoordinator, NodeForwarder,
			func() []byte { return []byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`) },
			2*time.Second))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.CommandsApplied == 0 {
		t.Fatal("unsecured forwarder never applied forged clear-stops commands")
	}
}

func TestCommandInjectionSecuredBlocked(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 10*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(time.Minute, 9*time.Minute, attack.NewCommandInjection(
			s.AttackerAdapter(), NodeCoordinator, NodeForwarder,
			func() []byte { return []byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`) },
			2*time.Second))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.CommandsApplied != 0 {
		t.Fatalf("secured forwarder applied %d forged commands", rep.Metrics.CommandsApplied)
	}
	if rep.Metrics.ForgeriesBlocked == 0 {
		t.Fatal("secure channel blocked no forgeries (attack not exercised?)")
	}
	if rep.Alerts["tampered-record"] == 0 {
		t.Fatalf("IDS alerts = %v, want tampered-record", rep.Alerts)
	}
}

func TestDeauthFloodUnprotectedTearsLinks(t *testing.T) {
	cfg := DefaultConfig(17)
	rep := runSite(t, cfg, 10*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(time.Minute, 9*time.Minute, attack.NewDeauthFlood(
			s.AttackerAdapter(), NodeForwarder, NodeCoordinator, 200*time.Millisecond))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.SendFailures == 0 {
		t.Fatal("deauth flood caused no send failures on unprotected stack")
	}
}

func TestDeauthFloodProtectedResists(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 10*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(time.Minute, 9*time.Minute, attack.NewDeauthFlood(
			s.AttackerAdapter(), NodeForwarder, NodeCoordinator, 200*time.Millisecond))
		c.Schedule(s.Scheduler())
	})
	if rep.Alerts["mgmt-forgery"] == 0 {
		t.Fatalf("IDS alerts = %v, want mgmt-forgery", rep.Alerts)
	}
	// Links hold: productivity comparable to clean secured run.
	if rep.Metrics.LogsDelivered == 0 {
		t.Fatal("protected site delivered nothing under deauth flood")
	}
}

func TestRFJammingDegradesComms(t *testing.T) {
	cfg := DefaultConfig(19)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 12*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		mid := geo.V(0.5*s.Grid().Width(), 0.5*s.Grid().Height())
		c.Add(2*time.Minute, 10*time.Minute,
			attack.NewJamming(s.Medium(), "jam-1", mid, 1, 40, true))
		c.Schedule(s.Scheduler())
	})
	if rep.Radio["jammed"] == 0 {
		t.Fatalf("radio drops = %v, want jammed losses", rep.Radio)
	}
	if rep.Alerts["link-degraded"] == 0 {
		t.Fatalf("IDS alerts = %v, want link-degraded", rep.Alerts)
	}
}

func TestReplayAttackSecuredBlocked(t *testing.T) {
	cfg := DefaultConfig(23)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 12*time.Minute, func(s *Site) {
		rec := &attack.Recorder{FilterDst: NodeForwarder}
		prev := s.Medium().Observer
		s.Medium().Observer = func(p radio.Packet, to radio.NodeID, sinr float64, cause radio.DropCause) {
			rec.Tap(p, to, sinr, cause)
			if prev != nil {
				prev(p, to, sinr, cause)
			}
		}
		c := attack.NewCampaign()
		c.Add(3*time.Minute, 10*time.Minute,
			attack.NewReplay(s.AttackerAdapter(), rec, time.Second))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.ReplaysBlocked == 0 {
		t.Fatal("secured site blocked no replays")
	}
	if rep.Alerts["replay"] == 0 {
		t.Fatalf("IDS alerts = %v, want replay", rep.Alerts)
	}
}

func TestDroneOffReducesDetections(t *testing.T) {
	with := DefaultConfig(29)
	without := DefaultConfig(29)
	without.DroneEnabled = false
	a := runSite(t, with, 20*time.Minute, nil)
	b := runSite(t, without, 20*time.Minute, nil)
	if a.Metrics.TracksConfirmed <= b.Metrics.TracksConfirmed {
		t.Fatalf("drone-on confirms %d <= drone-off %d",
			a.Metrics.TracksConfirmed, b.Metrics.TracksConfirmed)
	}
}

func TestUnsafeEpisodesIncreaseWhenBlinded(t *testing.T) {
	// Blind both cameras and remove the drone: detection falls to lidar only,
	// so unsafe proximity episodes should not decrease.
	cfg := DefaultConfig(31)
	cfg.DroneEnabled = false
	cfg.Weather.Rain = 0.8 // lidar heavily degraded too
	blind := runSite(t, cfg, 20*time.Minute, func(s *Site) {
		s.ForwarderCamera().Blinded = true
	})
	clear := runSite(t, DefaultConfig(31), 20*time.Minute, nil)
	if blind.Metrics.UnsafeTicks < clear.Metrics.UnsafeTicks {
		t.Fatalf("degraded perception unsafe ticks %d < full stack %d",
			blind.Metrics.UnsafeTicks, clear.Metrics.UnsafeTicks)
	}
}

func TestReportShape(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 5*time.Minute, nil)
	if rep.Duration != 5*time.Minute {
		t.Fatalf("duration = %v", rep.Duration)
	}
	if rep.Config.Seed != 3 {
		t.Fatal("config not echoed")
	}
	if rep.Alerts == nil {
		t.Fatal("secured report missing alerts map")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.TickPeriod = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("want error for zero tick period")
	}
}
