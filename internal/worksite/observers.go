package worksite

import "fmt"

// The built-in observers: the KPI accumulator and the operational timeline
// are ordinary subscribers of the same event stream external observers see,
// subscribed first at commissioning time. Every run therefore shares one
// code path, and a run with extra subscribers is bit-identical to one
// without.

// metricsObserver folds the event stream into the run's Metrics. The
// event-independent counters (send failures, blocked forgeries/replays,
// applied commands, distance, stop time) stay with the network and drive
// code that owns them; everything derived from ticks and responses
// accumulates here.
type metricsObserver struct {
	m *Metrics
}

var _ Observer = (*metricsObserver)(nil)

func (o *metricsObserver) OnTick(t TickSnapshot) {
	if t.MinWorkerDistM >= 0 && t.MinWorkerDistM < o.m.MinWorkerDistM {
		o.m.MinWorkerDistM = t.MinWorkerDistM
	}
	if t.Unsafe {
		o.m.UnsafeTicks++
	}
	o.m.navErrSum += t.NavErrM
	o.m.navErrCount++
	if t.NavErrM > o.m.NavErrMaxM {
		o.m.NavErrMaxM = t.NavErrM
	}
}

func (o *metricsObserver) OnSafetyEvent(e SafetyEvent) {
	switch e.Kind {
	case SafetyUnsafeEnter:
		o.m.UnsafeEpisodes++
	case SafetyCollision:
		o.m.Collisions++
	}
}

func (o *metricsObserver) OnSecurityResponse(r SecurityResponse) {
	switch r.Kind {
	case ResponseModeEscalation:
		o.m.SecurityResponses++
	case ResponseChannelHop:
		o.m.ChannelHops++
	}
}

func (o *metricsObserver) OnAlert(AlertRaised)         {}
func (o *metricsObserver) OnAttackPhase(AttackPhase)   {}
func (o *metricsObserver) OnModeChange(ModeChange)     {}
func (o *metricsObserver) OnMissionPhase(MissionPhase) {}

// timelineObserver materialises the operational timeline from the event
// stream: mission transitions, live-risk mode changes, channel hops, attack
// phases and safety transitions. IDS alerts are merged in at read time by
// Site.Timeline, so they are not recorded twice.
type timelineObserver struct {
	site *Site
}

var _ Observer = (*timelineObserver)(nil)

func (o *timelineObserver) OnMissionPhase(e MissionPhase) {
	o.site.recordEvent(e.At, "mission", e.Detail)
}

func (o *timelineObserver) OnModeChange(e ModeChange) {
	o.site.recordEvent(e.At, "risk-mode", fmt.Sprintf("%s -> %s", e.From, e.To))
}

func (o *timelineObserver) OnSecurityResponse(e SecurityResponse) {
	if e.Kind == ResponseChannelHop {
		o.site.recordEvent(e.At, "channel-hop", e.Detail)
	}
}

func (o *timelineObserver) OnAttackPhase(e AttackPhase) {
	state := "ends"
	if e.Active {
		state = "begins"
	}
	o.site.recordEvent(e.At, "attack", fmt.Sprintf("%s %s", e.Attack, state))
}

func (o *timelineObserver) OnSafetyEvent(e SafetyEvent) {
	switch e.Kind {
	case SafetyUnsafeEnter:
		o.site.recordEvent(e.At, "safety", fmt.Sprintf("unsafe episode begins (worker at %.1f m)", e.MinWorkerDistM))
	case SafetyUnsafeExit:
		o.site.recordEvent(e.At, "safety", "unsafe episode ends")
	case SafetyCollision:
		if e.New {
			o.site.recordEvent(e.At, "safety", fmt.Sprintf("collision contact (worker at %.1f m)", e.MinWorkerDistM))
		}
	case SafetyFailSafeEngaged:
		o.site.recordEvent(e.At, "safety", "fail-safe engaged: "+e.Detail)
	case SafetyFailSafeReleased:
		o.site.recordEvent(e.At, "safety", "fail-safe released: "+e.Detail)
	}
}

func (o *timelineObserver) OnTick(TickSnapshot) {}
func (o *timelineObserver) OnAlert(AlertRaised) {}
