package worksite

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/pki"
	"repro/internal/radio"
	"repro/internal/risk"
	"repro/internal/rng"
	"repro/internal/securechan"
	"repro/internal/sensors"
)

// wireMsg is the application-layer envelope exchanged between worksite
// actors.
type wireMsg struct {
	Type string `json:"type"` // heartbeat | status | detections | command
	From string `json:"from"`
	// Heartbeat/status fields.
	Seq     uint64  `json:"seq,omitempty"`
	PosX    float64 `json:"posX,omitempty"`
	PosY    float64 `json:"posY,omitempty"`
	State   string  `json:"state,omitempty"`
	GNSSOK  bool    `json:"gnssOk,omitempty"`
	GNSSWhy string  `json:"gnssWhy,omitempty"`
	// Detections payload (drone -> forwarder).
	Detections []sensors.Detection `json:"detections,omitempty"`
	// Command payload (coordinator -> machines; the injection target).
	Command string `json:"command,omitempty"`
}

// Command verbs. CommandClearStops is the dangerous one: it releases latched
// safety stops (legitimately used by the coordinator after an operator
// confirms the site is clear; catastrophically abused by command injection
// on an unauthenticated stack).
const (
	CommandPause      = "pause"
	CommandResume     = "resume"
	CommandClearStops = "clear-stops"
)

func (s *Site) commissionNetwork() error {
	type radioSpec struct {
		id  radio.NodeID
		pos func() geo.Vec
	}
	specs := []radioSpec{
		{NodeCoordinator, s.staticPos(s.landing.Add(geo.V(-8, 0)))},
		{NodeForwarder, func() geo.Vec { return s.forwarder.Pose.Pos }},
		{NodeHarvester, s.staticPos(s.harvester.Pose.Pos)},
		{NodeAttacker, s.staticPos(geo.V(0.5*s.grid.Width(), 0.35*s.grid.Height()))},
	}
	if s.cfg.DroneEnabled {
		specs = append(specs, radioSpec{NodeDrone, func() geo.Vec { return s.drone.Pose.Pos }})
	}

	mgmtKey := []byte("agrarsense-site-mgmt-key-v1")
	for _, sp := range specs {
		s.med.AddNode(&radio.Node{
			ID:         sp.id,
			Pos:        sp.pos,
			Channel:    1,
			TxPowerDBm: 23,
			Online:     true,
		})
		opts := netsim.Options{}
		if s.cfg.Profile.ProtectedMgmt && sp.id != NodeAttacker {
			opts = netsim.Options{ProtectedMgmt: true, MgmtKey: mgmtKey}
		}
		ad, err := netsim.NewAdapter(s.med, sp.id, opts)
		if err != nil {
			return fmt.Errorf("worksite: %w", err)
		}
		s.adapters[sp.id] = ad
	}

	s.linkNames = make(map[chanKey]string, len(specs)*(len(specs)-1)/2)
	for _, a := range specs {
		for _, b := range specs {
			if a.id < b.id {
				s.linkNames[chanKey{a.id, b.id}] = string(a.id) + "<->" + string(b.id)
			}
		}
	}

	if s.cfg.Profile.IDSEnabled {
		s.commissionIDS()
	}
	if s.cfg.Profile.SecureChannels {
		if err := s.commissionPKI(); err != nil {
			return err
		}
	}
	s.wireMessageHandlers()
	return s.associateLinks()
}

func (s *Site) staticPos(p geo.Vec) func() geo.Vec {
	return func() geo.Vec { return p }
}

// commissionPKI stands up the site CA and establishes pairwise secure
// channels. Pairing happens at commissioning over a trusted link (the depot),
// mirroring real fleet onboarding; subsequent records travel over the air.
// Under a shared bundle (batched sessions) the expensive half — keygen,
// issuance, handshakes — happened once in CommissionSecurity, and this
// session only forks the established channels.
func (s *Site) commissionPKI() error {
	if s.shared != nil && s.shared.bundle != nil {
		s.ca = s.shared.bundle.ca
		// Sorted keys: should two forks ever fail, the reported error must
		// not depend on map iteration order.
		keys := make([]chanKey, 0, len(s.shared.bundle.channels))
		for k := range s.shared.bundle.channels {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].local != keys[j].local {
				return keys[i].local < keys[j].local
			}
			return keys[i].peer < keys[j].peer
		})
		for _, k := range keys {
			fork, err := s.shared.bundle.channels[k].Fork()
			if err != nil {
				return fmt.Errorf("worksite: fork channel %s->%s: %w", k.local, k.peer, err)
			}
			s.channels[k] = fork
		}
		return nil
	}
	b, err := buildSecurity(s.cfg.DroneEnabled, s.rand, s.sched.Now)
	if err != nil {
		return err
	}
	s.ca = b.ca
	s.channels = b.channels
	return nil
}

// securityBundle is the output of security commissioning: the site CA and
// the established pairwise channels, keyed from each endpoint's side.
type securityBundle struct {
	ca       *pki.CA
	channels map[chanKey]*securechan.Channel
}

// buildSecurity is the seed-threaded security commissioning: CA keygen,
// identity issuance, and the pairwise handshakes, drawing from r's "pki" and
// "handshakes" streams. Both the per-session path and the shared batch
// template go through here, so the two can never drift.
func buildSecurity(droneEnabled bool, r *rng.Rand, now func() time.Duration) (*securityBundle, error) {
	ca, err := pki.NewCA("agrarsense-site-ca", r.Derive("pki"))
	if err != nil {
		return nil, fmt.Errorf("worksite: %w", err)
	}
	validity := 30 * 24 * time.Hour

	idents := make(map[radio.NodeID]pki.Identity)
	for _, spec := range []struct {
		id   radio.NodeID
		role pki.Role
	}{
		{NodeCoordinator, pki.RoleCoordinator},
		{NodeForwarder, pki.RoleMachine},
		{NodeHarvester, pki.RoleMachine},
		{NodeDrone, pki.RoleDrone},
	} {
		if spec.id == NodeDrone && !droneEnabled {
			continue
		}
		ident, err := ca.Issue(string(spec.id), spec.role, 0, validity)
		if err != nil {
			return nil, fmt.Errorf("worksite: %w", err)
		}
		idents[spec.id] = ident
	}

	verifier := pki.NewVerifier(ca.Cert(), ca.CRL())
	pairs := [][2]radio.NodeID{
		{NodeCoordinator, NodeForwarder},
		{NodeCoordinator, NodeHarvester},
	}
	if droneEnabled {
		pairs = append(pairs,
			[2]radio.NodeID{NodeCoordinator, NodeDrone},
			[2]radio.NodeID{NodeForwarder, NodeDrone},
		)
	}
	b := &securityBundle{ca: ca, channels: make(map[chanKey]*securechan.Channel, 2*len(pairs))}
	hr := r.Derive("handshakes")
	for _, p := range pairs {
		init := securechan.NewInitiator(idents[p[0]], verifier, securechan.Options{
			Rand: hr.Derive(string(p[0]) + ">" + string(p[1])),
			Now:  now,
		})
		resp := securechan.NewResponder(idents[p[1]], verifier, securechan.Options{
			Rand: hr.Derive(string(p[1]) + "<" + string(p[0])),
			Now:  now,
		})
		if err := runPairing(init, resp); err != nil {
			return nil, fmt.Errorf("worksite: pairing %s-%s: %w", p[0], p[1], err)
		}
		b.channels[chanKey{p[0], p[1]}] = init
		b.channels[chanKey{p[1], p[0]}] = resp
	}
	return b, nil
}

// runPairing executes the 3-message handshake over the trusted commissioning
// link.
func runPairing(init, resp *securechan.Channel) error {
	m1, err := init.Start()
	if err != nil {
		return err
	}
	m2, err := resp.HandleHandshake(m1)
	if err != nil {
		return err
	}
	m3, err := init.HandleHandshake(m2)
	if err != nil {
		return err
	}
	if _, err := resp.HandleHandshake(m3); err != nil {
		return err
	}
	return nil
}

func (s *Site) commissionIDS() {
	s.engine = ids.DefaultEngine()
	if s.cfg.Profile.ContinuousRisk {
		uc := risk.BuildUseCase()
		assessor, err := risk.NewContinuousAssessor(&uc.Model, uc.FullControls())
		if err == nil {
			// Attack quiet for two minutes relaxes the live register (field
			// timescale, not the 21434 default office timescale).
			assessor.DecayAfter = 2 * time.Minute
			s.assessor = assessor
			s.mode = risk.ModeNormal
		}
	}
	s.engine.OnAlert = s.handleAlert

	// The IDS taps the medium promiscuously: it samples delivery success on
	// the coordinator's links (jamming signature) and is fed protocol
	// violations by the adapters below.
	s.med.Observer = func(p radio.Packet, to radio.NodeID, _ float64, cause radio.DropCause) {
		if cause == radio.DropOffline {
			return
		}
		if to != NodeCoordinator && p.From != NodeCoordinator {
			return
		}
		v := 0.0
		if cause == radio.DropNone {
			v = 1.0
		}
		s.engine.Ingest(ids.Event{
			Kind:   ids.EventLinkSample,
			At:     s.sched.Now(),
			Source: s.linkName(p.From, to),
			OK:     cause == radio.DropNone,
			Value:  v,
		})
	}
}

// handleAlert is the coordinator's security-response entry point: alerts
// feed the live risk register and, for link degradation, trigger the
// channel-agility countermeasure.
func (s *Site) handleAlert(a ids.Alert) {
	s.publishAlert(AlertRaised{At: a.At, Alert: a})
	if s.assessor != nil {
		s.assessor.ObserveAlertType(a.Type, a.At)
	}
	if s.cfg.Profile.ChannelAgility && a.Type == "link-degraded" {
		s.hopChannel(a.At)
	}
}

// hopChannelCooldown rate-limits coordinated channel hops.
const hopChannelCooldown = 30 * time.Second

// hopChannel moves every worksite radio (not the attacker's) to the next
// channel of the pre-shared hop sequence. A narrowband jammer keeps heating
// the old channel; a wideband jammer follows everywhere — exactly the
// escalation the risk model prices into CTRL-CHAN-AGILITY.
func (s *Site) hopChannel(now time.Duration) {
	if s.hops > 0 && now-s.lastHop < hopChannelCooldown {
		return
	}
	s.lastHop = now
	s.hops++
	s.publishSecurityResponse(SecurityResponse{
		At:     now,
		Kind:   ResponseChannelHop,
		Detail: fmt.Sprintf("hop #%d (link degradation)", s.hops),
	})
	for id := range s.adapters {
		if id == NodeAttacker {
			continue
		}
		if n, ok := s.med.Node(id); ok {
			n.Channel++
		}
	}
}

// linkName returns the canonical IDS label for the a<->b link from the table
// precomputed at commissioning, so per-packet ingest does not build a fresh
// string. Pairs outside the table (none in practice) fall back to concat.
//
//worksim:hotpath
func (s *Site) linkName(a, b radio.NodeID) string {
	if a > b {
		a, b = b, a
	}
	if name, ok := s.linkNames[chanKey{a, b}]; ok {
		return name
	}
	return string(a) + "<->" + string(b)
}

func (s *Site) wireMessageHandlers() {
	for id, ad := range s.adapters {
		if id == NodeAttacker {
			continue
		}
		id, ad := id, ad
		ad.OnMessage = func(from radio.NodeID, payload []byte) {
			s.handleAppPayload(id, from, payload)
		}
		ad.OnMgmtReject = func(f netsim.Frame) {
			s.ingestIDS(ids.Event{
				Kind:   ids.EventMgmtForgery,
				At:     s.sched.Now(),
				Source: string(id),
				Detail: fmt.Sprintf("claimed src %s", f.Src),
			})
		}
		ad.OnDeauth = func(from radio.NodeID, authentic bool) {
			s.ingestIDS(ids.Event{
				Kind:   ids.EventDeauth,
				At:     s.sched.Now(),
				Source: string(id),
				OK:     false,
				Detail: fmt.Sprintf("deauth claiming %s (authentic=%v)", from, authentic),
			})
		}
	}
}

//worksim:hotpath
func (s *Site) ingestIDS(ev ids.Event) {
	if s.engine != nil {
		s.engine.Ingest(ev)
	}
}

func (s *Site) associateLinks() error {
	pairs := [][2]radio.NodeID{
		{NodeForwarder, NodeCoordinator},
		{NodeHarvester, NodeCoordinator},
	}
	if s.cfg.DroneEnabled {
		pairs = append(pairs,
			[2]radio.NodeID{NodeDrone, NodeCoordinator},
			[2]radio.NodeID{NodeDrone, NodeForwarder},
		)
	}
	for _, p := range pairs {
		if err := s.adapters[p[0]].Associate(p[1]); err != nil {
			return fmt.Errorf("worksite: associate %s->%s: %w", p[0], p[1], err)
		}
	}
	// Let association frames fly before the mission starts.
	return s.sched.Run(50 * time.Millisecond)
}

// sendBufSize is the initial capacity of a site's wire-message buffer and of
// each link's last-sent copy. It holds the largest message most catalog
// sites ever send (a detections message of under 700 bytes), so neither
// grows message by message.
const sendBufSize = 1024

// sentSlot holds the last message a site sent on one directed link that a
// receiver may take without decoding: the plaintext appendWireMsg produced
// and canon of the message it encoded. Both live in storage the slot owns
// and reuses, because the sender's detections are tick scratch.
type sentSlot struct {
	valid bool
	plain []byte
	dets  []sensors.Detection
	msg   wireMsg
}

//worksim:hotpath
func (sl *sentSlot) fill(plain []byte, m *wireMsg) {
	sl.plain = append(sl.plain[:0], plain...)
	sl.dets = append(sl.dets[:0], m.Detections...)
	sl.msg = *m
	sl.msg.Detections = sl.dets
	sl.msg = canon(sl.msg)
	sl.valid = true
}

// lastSentOn returns the from -> to link's slot, creating it on first use.
func (s *Site) lastSentOn(from, to radio.NodeID) *sentSlot {
	k := chanKey{from, to}
	sl := s.lastSent[k]
	if sl == nil {
		sl = &sentSlot{plain: make([]byte, 0, sendBufSize)}
		s.lastSent[k] = sl
	}
	return sl
}

// send transmits an application message from -> to, sealing it when the
// secured profile is active. Send errors are expected under attack (link
// torn down) and are absorbed as lost traffic.
//
// Encoding appends json.Marshal's bytes into the storage of the site's
// reused buffer with appendWireMsg, and records the plaintext and canon(msg)
// in the link's last-sent slot for the receiver. The few messages
// appendWireMsg does not cover go through the site's encoder instead, whose
// output is the same bytes plus a trailing newline (trimmed below); one it
// rejects (a NaN or infinite number) is dropped. Those clear the slot, since
// canon describes only appendWireMsg's round trip. The adapter copies the
// payload into its own frame storage before Transmit returns, so the buffer
// is free for the next message immediately.
//
//worksim:hotpath
func (s *Site) send(from, to radio.NodeID, msg wireMsg) {
	s.sendBuf.Reset()
	slot := s.lastSentOn(from, to)
	payload, ok := appendWireMsg(s.sendBuf.AvailableBuffer(), &msg)
	if ok {
		s.sendBuf.Write(payload) // keeps the storage if appending grew it
		slot.fill(payload, &msg)
	} else {
		slot.valid = false
		s.sendScratch = msg
		if err := s.sendEnc.Encode(&s.sendScratch); err != nil {
			return
		}
		payload = s.sendBuf.Bytes()
		payload = payload[:len(payload)-1]
	}
	if s.cfg.Profile.SecureChannels {
		ch := s.channels[chanKey{from, to}]
		if ch == nil {
			return
		}
		sealed, err := ch.Seal(payload)
		if err != nil {
			return
		}
		payload = sealed
	}
	ad := s.adapters[from]
	if ad == nil {
		return
	}
	if err := ad.SendData(to, payload); err != nil {
		// Link torn down (e.g. by de-auth): attempt re-association so the
		// system can self-heal once the attack stops.
		_ = ad.Associate(to)
		s.metrics.SendFailures++
	}
}

// handleAppPayload authenticates (when secured) and dispatches an inbound
// application message at the receiving node.
//
// A plaintext byte-equal to the last message sent on the from -> local link
// is dispatched from that link's slot: decoding is a pure function of the
// bytes, and the encoder tests prove encoding/json would decode them to
// exactly canon(msg). Any other payload (an injected, replayed, tampered or
// out-of-order frame) is decoded by encoding/json into a fresh message.
//
//worksim:hotpath
func (s *Site) handleAppPayload(local, from radio.NodeID, payload []byte) {
	if s.cfg.Profile.SecureChannels {
		ch := s.channels[chanKey{local, from}]
		if ch == nil {
			return
		}
		plain, err := ch.Open(payload)
		if err != nil {
			kind := ids.EventDecryptFailure
			if errors.Is(err, securechan.ErrReplay) {
				kind = ids.EventReplayRejected
				s.metrics.ReplaysBlocked++
			} else {
				s.metrics.ForgeriesBlocked++
			}
			s.ingestIDS(ids.Event{
				Kind:   kind,
				At:     s.sched.Now(),
				Source: s.linkName(local, from),
				Detail: err.Error(),
			})
			return
		}
		payload = plain
	}
	if sl := s.lastSent[chanKey{from, local}]; sl != nil && sl.valid && bytes.Equal(payload, sl.plain) {
		s.dispatch(local, sl.msg)
		return
	}
	var msg wireMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return
	}
	s.dispatch(local, msg)
}

//worksim:hotpath
func (s *Site) dispatch(local radio.NodeID, msg wireMsg) {
	switch {
	case local == NodeForwarder && msg.Type == "heartbeat":
		s.watchdog.Beat(s.sched.Now())
	case local == NodeForwarder && msg.Type == "detections":
		// Copy out: a slot hit's detections are the link's last-sent
		// storage, which the drone's next message overwrites.
		s.droneDets = append(s.droneDets[:0], msg.Detections...)
		s.droneDetsAt = s.sched.Now()
	case local == NodeForwarder && msg.Type == "command":
		s.handleCommand(msg)
	case local == NodeCoordinator && msg.Type == "status":
		// The coordinator relays machine-reported GNSS verdicts to the IDS.
		s.ingestIDS(ids.Event{
			Kind:   ids.EventGNSSVerdict,
			At:     s.sched.Now(),
			Source: msg.From,
			OK:     msg.GNSSOK,
			Detail: msg.GNSSWhy,
		})
	}
}

// handleCommand applies a coordinator command at the forwarder. On the
// unsecured stack the link layer cannot authenticate the sender, so forged
// commands from the attacker arrive here too — the unsafe consequence E5
// measures.
func (s *Site) handleCommand(msg wireMsg) {
	switch msg.Command {
	case CommandPause:
		s.forwarder.SetStop(machine.StopReasonSecurity, true)
	case CommandResume:
		s.forwarder.SetStop(machine.StopReasonSecurity, false)
	case CommandClearStops:
		s.metrics.CommandsApplied++
		for _, r := range s.forwarder.StopReasons() {
			s.forwarder.SetStop(r, false)
		}
	}
}
