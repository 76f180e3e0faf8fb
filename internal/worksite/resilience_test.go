package worksite

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/geo"
	"repro/internal/risk"
	"repro/internal/simclock"
)

// --- continuous-risk response ---

func TestContinuousRiskResponseUnderInjection(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 12*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(2*time.Minute, 8*time.Minute, attack.NewCommandInjection(
			s.AttackerAdapter(), NodeCoordinator, NodeForwarder,
			func() []byte { return []byte(`{"type":"command","from":"coordinator","command":"clear-stops"}`) },
			time.Second))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.SecurityResponses == 0 {
		t.Fatal("live risk register never escalated the operating mode under injection")
	}
}

func TestContinuousRiskQuietBaseline(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.Profile = Secured()
	rep := runSite(t, cfg, 15*time.Minute, nil)
	if rep.Metrics.SecurityResponses != 0 {
		t.Fatalf("benign run triggered %d security responses", rep.Metrics.SecurityResponses)
	}
}

func TestContinuousRiskModeRelaxesAfterAttack(t *testing.T) {
	cfg := DefaultConfig(41)
	cfg.Profile = Secured()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := attack.NewCampaign()
	// Short spoof burst early; DecayAfter is two minutes.
	c.Add(time.Minute, 2*time.Minute, attack.NewGNSSSpoof(s.ForwarderGNSS(), geo.V(60, 40)))
	c.Schedule(s.Scheduler())
	if _, err := (&Session{site: s}).Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.OperatingMode() != risk.ModeNormal {
		t.Fatalf("mode = %v eight minutes after the attack, want normal", s.OperatingMode())
	}
}

func TestContinuousRiskDisabledProfile(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.Profile = Secured()
	cfg.Profile.ContinuousRisk = false
	rep := runSite(t, cfg, 10*time.Minute, func(s *Site) {
		c := attack.NewCampaign()
		c.Add(time.Minute, 8*time.Minute, attack.NewCommandInjection(
			s.AttackerAdapter(), NodeCoordinator, NodeForwarder,
			func() []byte { return []byte(`{"type":"command"}`) }, time.Second))
		c.Schedule(s.Scheduler())
	})
	if rep.Metrics.SecurityResponses != 0 {
		t.Fatal("security responses with continuous risk disabled")
	}
}

// --- failure injection ---

func TestDroneRadioFailureDegradesGracefully(t *testing.T) {
	cfg := DefaultConfig(43)
	rep := runSite(t, cfg, 15*time.Minute, func(s *Site) {
		// The drone's radio dies five minutes in (hardware fault, not attack).
		s.Scheduler().At(5*time.Minute, func(*simclock.Scheduler) {
			if n, ok := s.Medium().Node(NodeDrone); ok {
				n.Online = false
			}
		})
	})
	// The site keeps operating on the forwarder's own sensors.
	if rep.Metrics.LogsDelivered == 0 {
		t.Fatal("site stalled entirely after drone radio failure")
	}
	if rep.Metrics.Collisions != 0 {
		t.Fatalf("collisions = %d after drone loss", rep.Metrics.Collisions)
	}
}

func TestCoordinatorSilenceTriggersFailSafe(t *testing.T) {
	cfg := DefaultConfig(47)
	cfg.Profile = Secured()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The coordinator radio dies at minute 3 and never recovers: heartbeats
	// stop, the watchdog must park the forwarder.
	s.Scheduler().At(3*time.Minute, func(*simclock.Scheduler) {
		if n, ok := s.Medium().Node(NodeCoordinator); ok {
			n.Online = false
		}
	})
	rep, err := (&Session{site: s}).Run(context.Background(), 10*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.Forwarder().Stopped() {
		t.Fatal("forwarder still moving without coordinator heartbeats")
	}
	found := false
	for _, r := range s.Forwarder().StopReasons() {
		if r == "comms-watchdog" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stop reasons = %v, want comms-watchdog", s.Forwarder().StopReasons())
	}
	if rep.Metrics.StoppedFor < 3*time.Minute {
		t.Fatalf("stopped for %v, want most of the post-failure window", rep.Metrics.StoppedFor)
	}
}

func TestCoordinatorSilenceUnsecuredKeepsDriving(t *testing.T) {
	// Without the comms fail-safe the machine keeps operating blind — the
	// hazardous legacy behaviour.
	cfg := DefaultConfig(47)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Scheduler().At(3*time.Minute, func(*simclock.Scheduler) {
		if n, ok := s.Medium().Node(NodeCoordinator); ok {
			n.Online = false
		}
	})
	if _, err := (&Session{site: s}).Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range s.Forwarder().StopReasons() {
		if r == "comms-watchdog" {
			t.Fatal("unsecured profile latched a comms stop")
		}
	}
}

func TestHarshWeatherStillSafe(t *testing.T) {
	cfg := DefaultConfig(53)
	cfg.Weather.Rain = 0.9
	cfg.Weather.Fog = 0.6
	cfg.Weather.Darkness = 0.8
	rep := runSite(t, cfg, 15*time.Minute, nil)
	// Perception is heavily degraded; the ultrasonic last line plus drone
	// keep collisions at zero even if unsafe proximity rises.
	if rep.Metrics.Collisions != 0 {
		t.Fatalf("collisions = %d in harsh weather", rep.Metrics.Collisions)
	}
}

func TestZeroWorkersNoUnsafeEvents(t *testing.T) {
	cfg := DefaultConfig(59)
	cfg.Workers = 0
	rep := runSite(t, cfg, 10*time.Minute, nil)
	if rep.Metrics.UnsafeEpisodes != 0 || rep.Metrics.Collisions != 0 {
		t.Fatalf("unsafe events without workers: %+v", rep.Metrics)
	}
	if rep.Metrics.LogsDelivered == 0 {
		t.Fatal("no productivity on an empty site")
	}
}

// --- timeline ---

func TestTimelineRecordsIncident(t *testing.T) {
	cfg := DefaultConfig(67)
	cfg.Profile = Secured()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := attack.NewCampaign()
	c.Add(2*time.Minute, 6*time.Minute, attack.NewGNSSSpoof(s.ForwarderGNSS(), geo.V(60, 40)))
	c.Schedule(s.Scheduler())
	if _, err := (&Session{site: s}).Run(context.Background(), 10*time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	events := s.Timeline()
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	kinds := map[string]bool{}
	for i, e := range events {
		kinds[e.Kind] = true
		if i > 0 && e.At < events[i-1].At {
			t.Fatal("timeline not sorted")
		}
	}
	for _, want := range []string{"mission", "alert", "risk-mode"} {
		if !kinds[want] {
			t.Fatalf("timeline kinds = %v, missing %q", kinds, want)
		}
	}
	full := s.RenderTimeline(0)
	if !strings.Contains(full, "gnss-anomaly") || !strings.Contains(full, "mission") {
		t.Fatalf("full rendering missing content:\n%s", full)
	}
	capped := s.RenderTimeline(20)
	if lines := strings.Count(capped, "\n"); lines > 21 {
		t.Fatalf("cap not applied: %d lines", lines)
	}
}

// --- rendering ---

func TestRenderMap(t *testing.T) {
	cfg := DefaultConfig(61)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := s.RenderMap(80)
	for _, want := range []string{"F", "L", "H", "V", "D", "^"} {
		if !strings.Contains(m, want) {
			t.Fatalf("map missing %q:\n%s", want, m)
		}
	}
	lines := strings.Split(strings.TrimSpace(m), "\n")
	if len(lines) < 10 {
		t.Fatalf("map too small: %d lines", len(lines))
	}
	// Width bounded as requested.
	for _, l := range lines[1:] {
		if len(l) > 80 {
			t.Fatalf("map line exceeds 80 cols: %d", len(l))
		}
	}
}
