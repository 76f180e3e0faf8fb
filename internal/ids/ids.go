// Package ids implements the worksite intrusion detection system.
//
// The forestry characteristics table (paper Table I, "Remote Monitoring and
// Control", "Autonomous Machinery") and IEC 62443's monitoring requirements
// motivate a site-local IDS: forestry sites have no SOC uplink, so detection
// and first response must run inside the system of systems. The engine fans
// security-relevant events (management-frame forgeries, de-auth floods, link
// quality collapse, GNSS implausibility, record replays, failed
// authentications, boot/attestation failures) to a set of detectors —
// signature rules for protocol violations, EWMA anomaly detectors for link
// and navigation quality — and aggregates alerts into an incident log that
// later becomes assurance-case evidence.
package ids

import (
	"fmt"
	"time"
)

// Severity ranks an alert.
type Severity int

// Severities.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityCritical
)

// String returns a short severity label.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// EventKind classifies an ingested telemetry event.
type EventKind int

// Event kinds the sensors/network stack feed into the IDS.
const (
	EventDeauth EventKind = iota + 1
	EventMgmtForgery
	EventLinkSample // Value = delivery success (1) or loss (0) for a link
	EventGNSSVerdict
	EventReplayRejected
	EventAuthFailure
	EventDecryptFailure
	EventBootFailure
	EventAttestationFailure
)

// String returns a short kind label.
func (k EventKind) String() string {
	switch k {
	case EventDeauth:
		return "deauth"
	case EventMgmtForgery:
		return "mgmt-forgery"
	case EventLinkSample:
		return "link-sample"
	case EventGNSSVerdict:
		return "gnss-verdict"
	case EventReplayRejected:
		return "replay-rejected"
	case EventAuthFailure:
		return "auth-failure"
	case EventDecryptFailure:
		return "decrypt-failure"
	case EventBootFailure:
		return "boot-failure"
	case EventAttestationFailure:
		return "attestation-failure"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one telemetry observation.
type Event struct {
	Kind   EventKind     `json:"kind"`
	At     time.Duration `json:"atNs"`
	Source string        `json:"source"` // link or machine identifier
	OK     bool          `json:"ok"`     // semantic success flag (kind-specific)
	Value  float64       `json:"value"`  // kind-specific magnitude
	Detail string        `json:"detail,omitempty"`
}

// Alert is a detector finding.
type Alert struct {
	At       time.Duration `json:"atNs"`
	Severity Severity      `json:"severity"`
	Type     string        `json:"type"`
	Source   string        `json:"source"`
	Detail   string        `json:"detail"`
}

// Detector turns events into alerts. Implementations keep per-source state.
type Detector interface {
	// Name identifies the detector in alerts and reports.
	Name() string
	// Process consumes one event and returns any alerts it raises.
	Process(ev Event) []Alert
}

// Engine fans events to detectors and aggregates their alerts.
type Engine struct {
	detectors []Detector
	alerts    []Alert
	byType    map[string]int

	firstEventAt map[string]time.Duration // earliest suspicious event per type
	firstAlertAt map[string]time.Duration

	// OnAlert, if set, is invoked for every alert (e.g. to trigger fail-safe
	// responses at the coordinator).
	OnAlert func(Alert)
}

// NewEngine creates an engine with the given detectors.
func NewEngine(detectors ...Detector) *Engine {
	return &Engine{
		detectors:    detectors,
		byType:       make(map[string]int),
		firstEventAt: make(map[string]time.Duration),
		firstAlertAt: make(map[string]time.Duration),
	}
}

// DefaultEngine returns an engine with the full worksite detector suite.
func DefaultEngine() *Engine {
	return NewEngine(
		NewSignatureDetector(),
		NewDeauthFloodDetector(5, 10*time.Second),
		NewLinkQualityDetector(0.3, 0.5),
		NewGNSSConsistencyDetector(3),
	)
}

// Ingest feeds one event through all detectors.
//
//worksim:hotpath
func (e *Engine) Ingest(ev Event) {
	if !ev.OK {
		if _, seen := e.firstEventAt[ev.Kind.String()]; !seen {
			e.firstEventAt[ev.Kind.String()] = ev.At
		}
	}
	for _, d := range e.detectors {
		for _, a := range d.Process(ev) {
			e.record(a)
		}
	}
}

//worksim:hotpath
func (e *Engine) record(a Alert) {
	e.alerts = append(e.alerts, a)
	e.byType[a.Type]++
	if _, seen := e.firstAlertAt[a.Type]; !seen {
		e.firstAlertAt[a.Type] = a.At
	}
	if e.OnAlert != nil {
		e.OnAlert(a)
	}
}

// Alerts returns a copy of the alert log.
func (e *Engine) Alerts() []Alert {
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// Total returns the number of alerts raised so far.
func (e *Engine) Total() int { return len(e.alerts) }

// CountByType returns a copy of the per-type alert counters.
func (e *Engine) CountByType() map[string]int {
	out := make(map[string]int, len(e.byType))
	for k, v := range e.byType {
		out[k] = v
	}
	return out
}

// CriticalCount returns the number of critical alerts.
func (e *Engine) CriticalCount() int {
	n := 0
	for _, a := range e.alerts {
		if a.Severity == SeverityCritical {
			n++
		}
	}
	return n
}

// DetectionLatency returns, for an alert type, the delay between the first
// suspicious event of the matching kind and the first alert, if both exist.
// This is the E5a metric (IDS reaction time vs. damage done).
func (e *Engine) DetectionLatency(alertType, eventKind string) (time.Duration, bool) {
	ev, okE := e.firstEventAt[eventKind]
	al, okA := e.firstAlertAt[alertType]
	if !okE || !okA || al < ev {
		return 0, false
	}
	return al - ev, true
}

// --- Detectors ---

// SignatureDetector raises immediate alerts on protocol-violation events that
// are malicious by definition: forged management frames, rejected replays,
// failed peer authentications, tampered records, failed boots/attestations.
type SignatureDetector struct{}

// NewSignatureDetector returns the rule-based detector.
func NewSignatureDetector() *SignatureDetector { return &SignatureDetector{} }

var _ Detector = (*SignatureDetector)(nil)

// Name implements Detector.
func (d *SignatureDetector) Name() string { return "signature" }

// Process implements Detector.
//
//worksim:hotpath
func (d *SignatureDetector) Process(ev Event) []Alert {
	mk := func(sev Severity, typ, detail string) []Alert {
		return []Alert{{At: ev.At, Severity: sev, Type: typ, Source: ev.Source, Detail: detail}}
	}
	switch ev.Kind {
	case EventMgmtForgery:
		return mk(SeverityCritical, "mgmt-forgery", "management frame with invalid MIC: "+ev.Detail)
	case EventReplayRejected:
		return mk(SeverityWarning, "replay", "secure channel rejected replayed record")
	case EventAuthFailure:
		return mk(SeverityCritical, "auth-failure", "peer failed PKI authentication: "+ev.Detail)
	case EventDecryptFailure:
		return mk(SeverityWarning, "tampered-record", "record failed AEAD authentication")
	case EventBootFailure:
		return mk(SeverityCritical, "boot-integrity", "verified boot halted: "+ev.Detail)
	case EventAttestationFailure:
		return mk(SeverityCritical, "attestation", "remote attestation failed: "+ev.Detail)
	default:
		return nil
	}
}

// DeauthFloodDetector alerts when more than threshold de-auth frames arrive
// within a sliding window — the Wi-Fi disconnection attack from the mining
// survey.
type DeauthFloodDetector struct {
	threshold int
	window    time.Duration
	seen      map[string][]time.Duration
	alerted   map[string]time.Duration
}

// NewDeauthFloodDetector returns a flood detector with the given per-window
// threshold.
func NewDeauthFloodDetector(threshold int, window time.Duration) *DeauthFloodDetector {
	return &DeauthFloodDetector{
		threshold: threshold,
		window:    window,
		seen:      make(map[string][]time.Duration),
		alerted:   make(map[string]time.Duration),
	}
}

var _ Detector = (*DeauthFloodDetector)(nil)

// Name implements Detector.
func (d *DeauthFloodDetector) Name() string { return "deauth-flood" }

// Process implements Detector.
//
//worksim:hotpath
func (d *DeauthFloodDetector) Process(ev Event) []Alert {
	if ev.Kind != EventDeauth {
		return nil
	}
	times := append(d.seen[ev.Source], ev.At)
	// Trim events outside the window by copying down in place: re-slicing
	// forward (times = times[cut:]) would walk the stored slice away from its
	// backing array's start and force a reallocation every window's worth of
	// events, forever.
	cut := 0
	for cut < len(times) && ev.At-times[cut] > d.window {
		cut++
	}
	if cut > 0 {
		times = times[:copy(times, times[cut:])]
	}
	d.seen[ev.Source] = times
	if len(times) < d.threshold {
		return nil
	}
	// Rate-limit: one alert per window per source.
	if last, ok := d.alerted[ev.Source]; ok && ev.At-last < d.window {
		return nil
	}
	d.alerted[ev.Source] = ev.At
	return []Alert{{
		At:       ev.At,
		Severity: SeverityCritical,
		Type:     "deauth-flood",
		Source:   ev.Source,
		Detail:   fmt.Sprintf("%d de-auth frames within %v", len(times), d.window),
	}}
}

// LinkQualityDetector tracks an EWMA of link delivery and alerts when it
// collapses — the observable signature of jamming or severe interference.
type LinkQualityDetector struct {
	alpha     float64
	threshold float64
	ewma      map[string]float64
	samples   map[string]int
	alarming  map[string]bool
}

// NewLinkQualityDetector returns a detector alerting when the delivery EWMA
// falls below threshold. alpha is the EWMA smoothing factor in (0,1].
func NewLinkQualityDetector(threshold, alpha float64) *LinkQualityDetector {
	return &LinkQualityDetector{
		alpha:     alpha,
		threshold: threshold,
		ewma:      make(map[string]float64),
		samples:   make(map[string]int),
		alarming:  make(map[string]bool),
	}
}

var _ Detector = (*LinkQualityDetector)(nil)

// Name implements Detector.
func (d *LinkQualityDetector) Name() string { return "link-quality" }

// Process implements Detector.
//
//worksim:hotpath
func (d *LinkQualityDetector) Process(ev Event) []Alert {
	if ev.Kind != EventLinkSample {
		return nil
	}
	cur, ok := d.ewma[ev.Source]
	if !ok {
		cur = 1 // assume healthy until proven otherwise
	}
	cur = (1-d.alpha)*cur + d.alpha*ev.Value
	d.ewma[ev.Source] = cur
	d.samples[ev.Source]++
	if d.samples[ev.Source] < 5 {
		return nil // warm-up
	}
	below := cur < d.threshold
	if below && !d.alarming[ev.Source] {
		d.alarming[ev.Source] = true
		return []Alert{{
			At:       ev.At,
			Severity: SeverityCritical,
			Type:     "link-degraded",
			Source:   ev.Source,
			Detail:   fmt.Sprintf("delivery EWMA %.2f below %.2f (jamming or interference)", cur, d.threshold),
		}}
	}
	if !below && d.alarming[ev.Source] && cur > d.threshold+0.15 {
		d.alarming[ev.Source] = false
		return []Alert{{
			At:       ev.At,
			Severity: SeverityInfo,
			Type:     "link-recovered",
			Source:   ev.Source,
			Detail:   fmt.Sprintf("delivery EWMA recovered to %.2f", cur),
		}}
	}
	return nil
}

// EWMA returns the current delivery estimate for a link, for diagnostics.
func (d *LinkQualityDetector) EWMA(source string) (float64, bool) {
	v, ok := d.ewma[source]
	return v, ok
}

// GNSSConsistencyDetector alerts after N consecutive untrustworthy GNSS
// verdicts from the same machine — spoofing/jamming indication.
type GNSSConsistencyDetector struct {
	needed   int
	streak   map[string]int
	alarming map[string]bool
}

// NewGNSSConsistencyDetector returns a detector requiring `needed`
// consecutive bad verdicts.
func NewGNSSConsistencyDetector(needed int) *GNSSConsistencyDetector {
	return &GNSSConsistencyDetector{
		needed:   needed,
		streak:   make(map[string]int),
		alarming: make(map[string]bool),
	}
}

var _ Detector = (*GNSSConsistencyDetector)(nil)

// Name implements Detector.
func (d *GNSSConsistencyDetector) Name() string { return "gnss-consistency" }

// Process implements Detector.
//
//worksim:hotpath
func (d *GNSSConsistencyDetector) Process(ev Event) []Alert {
	if ev.Kind != EventGNSSVerdict {
		return nil
	}
	if ev.OK {
		d.streak[ev.Source] = 0
		if d.alarming[ev.Source] {
			d.alarming[ev.Source] = false
			return []Alert{{
				At: ev.At, Severity: SeverityInfo, Type: "gnss-recovered",
				Source: ev.Source, Detail: "GNSS plausibility restored",
			}}
		}
		return nil
	}
	d.streak[ev.Source]++
	if d.streak[ev.Source] == d.needed && !d.alarming[ev.Source] {
		d.alarming[ev.Source] = true
		return []Alert{{
			At:       ev.At,
			Severity: SeverityCritical,
			Type:     "gnss-anomaly",
			Source:   ev.Source,
			Detail:   fmt.Sprintf("%d consecutive implausible fixes: %s", d.needed, ev.Detail),
		}}
	}
	return nil
}
