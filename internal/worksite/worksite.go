// Package worksite assembles the paper's Fig. 1 system of systems: an
// autonomous forwarder hauling logs between a harvest site and a landing
// area, a manually operated harvester, an observation drone providing the
// Fig. 2 additional point of view, workers on foot, and a site coordinator —
// all over the simulated radio medium, optionally hardened with the full
// security stack (worksite PKI + secure channels, protected management
// frames, GNSS plausibility guarding, communication fail-safe, IDS).
//
// The same scenario can be run with any subset of the defences enabled,
// which is how the E5 attack-interplay experiment compares the unsecured and
// secured pathways under bit-identical adversary schedules.
package worksite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fusion"
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
	"repro/internal/simclock"
)

// Node identifiers on the worksite network.
const (
	NodeCoordinator radio.NodeID = "coordinator"
	NodeForwarder   radio.NodeID = "forwarder-1"
	NodeDrone       radio.NodeID = "drone-1"
	NodeHarvester   radio.NodeID = "harvester-1"
	NodeAttacker    radio.NodeID = "attacker"
)

// SecurityProfile selects which defences of the certification pathway are
// active.
type SecurityProfile struct {
	// SecureChannels authenticates and encrypts all application traffic over
	// the worksite PKI.
	SecureChannels bool `json:"secureChannels"`
	// ProtectedMgmt enables 802.11w-style management-frame protection.
	ProtectedMgmt bool `json:"protectedMgmt"`
	// GNSSGuard enables plausibility checking of GNSS fixes with a
	// nav-integrity fail-safe.
	GNSSGuard bool `json:"gnssGuard"`
	// CommsFailSafe stops the forwarder when the coordinator heartbeat is
	// lost.
	CommsFailSafe bool `json:"commsFailSafe"`
	// IDSEnabled runs the worksite intrusion detection system.
	IDSEnabled bool `json:"idsEnabled"`
	// ContinuousRisk keeps the TARA live during operations (ISO/SAE 21434
	// continuous activities, paper Section VI): IDS alerts escalate matching
	// threat scenarios and the coordinator derives the operating mode from
	// the live register. Requires IDSEnabled.
	ContinuousRisk bool `json:"continuousRisk"`
	// ChannelAgility hops the worksite to the next radio channel when the
	// IDS reports link degradation — the availability countermeasure against
	// narrowband jamming (CTRL-CHAN-AGILITY in the risk model). Requires
	// IDSEnabled.
	ChannelAgility bool `json:"channelAgility"`
}

// Unsecured returns the pathway baseline: no cyber defences (the pre-CE
// state of the art the paper argues against).
func Unsecured() SecurityProfile { return SecurityProfile{} }

// Secured returns the full defence stack.
func Secured() SecurityProfile {
	return SecurityProfile{
		SecureChannels: true,
		ProtectedMgmt:  true,
		GNSSGuard:      true,
		CommsFailSafe:  true,
		IDSEnabled:     true,
		ContinuousRisk: true,
		ChannelAgility: true,
	}
}

// Config parameterises a worksite scenario.
type Config struct {
	Seed int64
	// Site geometry.
	Cols, Rows int
	CellSizeM  float64
	// Forest composition.
	TreeDensity float64
	RockDensity float64
	// Weather for the whole run.
	Weather sensors.Weather
	// Workers on foot near the harvest site.
	Workers int
	// Profile selects the active defences.
	Profile SecurityProfile
	// Fusion policy: hits to confirm a person track (1 = OR-fusion).
	ConfirmHits int
	// DroneEnabled adds the observation drone (Fig. 2 on) or removes it.
	DroneEnabled bool
	// Mission timing.
	LoadTime   time.Duration
	UnloadTime time.Duration
	// TickPeriod is the control-loop period.
	TickPeriod time.Duration
}

// Validate rejects configurations that would produce a meaningless
// simulation, so malformed scenario specs fail fast with a clear message
// instead of odd sim behaviour. New calls it; scenario tooling can call it
// directly to vet a spec without commissioning a site.
func (c Config) Validate() error {
	if c.Cols <= 0 || c.Rows <= 0 {
		return fmt.Errorf("worksite config: grid dimensions must be positive, got %dx%d", c.Cols, c.Rows)
	}
	if c.CellSizeM <= 0 {
		return fmt.Errorf("worksite config: cell size must be positive, got %v m", c.CellSizeM)
	}
	if c.TreeDensity < 0 || c.TreeDensity > 1 {
		return fmt.Errorf("worksite config: tree density must be in [0,1], got %v", c.TreeDensity)
	}
	if c.RockDensity < 0 || c.RockDensity > 1 {
		return fmt.Errorf("worksite config: rock density must be in [0,1], got %v", c.RockDensity)
	}
	if c.Weather.Rain < 0 || c.Weather.Rain > 1 ||
		c.Weather.Fog < 0 || c.Weather.Fog > 1 ||
		c.Weather.Darkness < 0 || c.Weather.Darkness > 1 {
		return fmt.Errorf("worksite config: weather factors must be in [0,1], got %+v", c.Weather)
	}
	if c.Workers < 0 {
		return fmt.Errorf("worksite config: worker count must be non-negative, got %d", c.Workers)
	}
	if c.ConfirmHits < 0 {
		return fmt.Errorf("worksite config: fusion confirm hits must be non-negative, got %d", c.ConfirmHits)
	}
	if c.LoadTime <= 0 || c.UnloadTime <= 0 {
		return fmt.Errorf("worksite config: load/unload times must be positive, got %v/%v", c.LoadTime, c.UnloadTime)
	}
	if c.TickPeriod <= 0 {
		return fmt.Errorf("worksite config: tick period must be positive, got %v", c.TickPeriod)
	}
	// Cross-field profile invariants: these defences are driven by IDS
	// alerts and are silently inert without the engine.
	if c.Profile.ContinuousRisk && !c.Profile.IDSEnabled {
		return fmt.Errorf("worksite config: profile enables continuousRisk without idsEnabled (the live register is driven by IDS alerts)")
	}
	if c.Profile.ChannelAgility && !c.Profile.IDSEnabled {
		return fmt.Errorf("worksite config: profile enables channelAgility without idsEnabled (hops are triggered by IDS link alerts)")
	}
	return nil
}

// Site is a fully wired worksite simulation.
type Site struct {
	cfg   Config
	rand  *rng.Rand
	sched *simclock.Scheduler
	grid  *geo.Grid
	med   *radio.Medium

	landing geo.Vec
	harvest geo.Vec

	forwarder *machine.Machine
	harvester *machine.Machine
	drone     *machine.Machine
	workers   []*worker

	fwGNSS    *sensors.GNSS
	fwGuard   *sensors.GNSSGuard
	fwLidar   *sensors.Lidar
	fwCamera  *sensors.Camera
	fwUltra   *sensors.Ultrasonic
	droneCam  *sensors.AerialCamera
	tracker   *fusion.Tracker
	safety    *machine.SafetyController
	watchdog  *machine.Watchdog
	gnssErr   geo.Vec // believed-minus-true positioning error (attack effect)
	navPath   []geo.Vec
	navIdx    int
	mission   missionPhase
	phaseLeft time.Duration

	adapters map[radio.NodeID]*netsim.Adapter
	channels map[chanKey]*securechan.Channel
	engine   *ids.Engine
	ca       *pki.CA
	assessor *risk.ContinuousAssessor
	mode     risk.OperatingMode
	lastHop  time.Duration
	hops     int

	// riskScratch is the reusable live-register buffer for the 1Hz
	// operating-mode recomputation (see risk.CurrentInto).
	riskScratch []risk.AssessedRisk

	// linkNames precomputes the IDS link labels for every commissioned node
	// pair, so the promiscuous medium observer does not concatenate a fresh
	// string per observed packet.
	linkNames map[chanKey]string

	// shared, when non-nil, is the batch's pre-commissioned security bundle;
	// commissionPKI forks its established channels instead of handshaking.
	shared *SharedSecurity

	droneDets   []sensors.Detection
	droneDetsAt time.Duration

	workerRand     *rng.Rand
	believed       geo.Vec // forwarder's believed position (GNSS-derived)
	droneAngle     float64
	loaded         bool
	tickNo         int
	lastVerdictOK  bool
	lastVerdictWhy string

	metrics     Metrics
	unsafe      bool // currently inside an unsafe episode
	colliding   bool // currently inside the collision radius
	navStopOn   bool // nav-integrity fail-safe latch shadow (event edge detection)
	commsStopOn bool // comms-watchdog fail-safe latch shadow
	timeline    []TimelineEvent

	// Per-tick scratch state. The control loop runs at 2 Hz for every
	// simulated machine-minute, so its working set is reused tick over tick:
	// target/detection/position buffers, the wire-message buffer (and the
	// encoder for messages the fast encoder does not cover), and each
	// link's last-sent slot, which the receiver takes instead of decoding.
	// A steady-state tick performs zero heap allocations (locked by
	// TestTickLoopZeroAllocs).
	ticksPerSec      int
	scratchTargets   []sensors.Target
	scratchDets      []sensors.Detection
	scratchPositions []geo.Vec
	sendBuf          bytes.Buffer
	sendEnc          *json.Encoder
	sendScratch      wireMsg
	lastSent         map[chanKey]*sentSlot

	// observers receive the typed event stream; the built-in metrics and
	// timeline observers subscribe first at commissioning.
	observers   []Observer
	lastTick    TickSnapshot
	firstTickAt time.Duration // virtual time of control tick #1 (commissioning + one period)
}

type chanKey struct {
	local, peer radio.NodeID
}

type worker struct {
	id     string
	pos    geo.Vec
	target geo.Vec
	speed  float64
}

type missionPhase int

const (
	phaseToHarvest missionPhase = iota + 1
	phaseLoading
	phaseToLanding
	phaseUnloading
)

func (p missionPhase) String() string {
	switch p {
	case phaseToHarvest:
		return "to-harvest"
	case phaseLoading:
		return "loading"
	case phaseToLanding:
		return "to-landing"
	case phaseUnloading:
		return "unloading"
	default:
		return "unknown"
	}
}

// New builds and commissions a worksite from cfg.
func New(cfg Config) (*Site, error) { return newSite(cfg, nil, nil) }

// newSite builds a site whose random streams come from slab, or fresh ones
// when slab is nil.
func newSite(cfg Config, sh *SharedSecurity, slab *rng.Slab) (*Site, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := slab.New(cfg.Seed)
	grid, err := geo.NewGrid(cfg.Cols, cfg.Rows, cfg.CellSizeM)
	if err != nil {
		return nil, fmt.Errorf("worksite: %w", err)
	}

	s := &Site{
		cfg:      cfg,
		rand:     r,
		sched:    simclock.New(),
		grid:     grid,
		adapters: make(map[radio.NodeID]*netsim.Adapter),
		channels: make(map[chanKey]*securechan.Channel),
		mission:  phaseToHarvest,
		lastSent: make(map[chanKey]*sentSlot),
		shared:   sh,
	}
	s.sendBuf.Grow(sendBufSize)
	s.sendEnc = json.NewEncoder(&s.sendBuf)
	s.ticksPerSec = ticksPerSecond(cfg.TickPeriod)
	s.landing = geo.V(0.15*grid.Width(), 0.5*grid.Height())
	s.harvest = geo.V(0.85*grid.Width(), 0.5*grid.Height())

	grid.CarveRoad(s.landing, s.harvest)
	grid.GenerateForest(r.Derive("forest"), geo.ForestOptions{
		TreeDensity: cfg.TreeDensity,
		RockDensity: cfg.RockDensity,
		ClearRadius: 6 * cfg.CellSizeM,
		Clearings:   []geo.Vec{s.landing, s.harvest},
	})

	s.med = radio.NewMedium(s.sched, grid, r, radio.Config{})

	if err := s.commissionActors(); err != nil {
		return nil, err
	}
	if err := s.commissionNetwork(); err != nil {
		return nil, err
	}
	s.commissionControl()
	return s, nil
}

func (s *Site) commissionActors() error {
	s.forwarder = machine.New(string(NodeForwarder), machine.KindForwarder,
		geo.Pose{Pos: s.landing})
	s.harvester = machine.New(string(NodeHarvester), machine.KindHarvester,
		geo.Pose{Pos: s.harvest.Add(geo.V(10, 14))})
	if s.cfg.DroneEnabled {
		s.drone = machine.New(string(NodeDrone), machine.KindDrone,
			geo.Pose{Pos: s.landing.Add(geo.V(0, 20))})
	}

	wr := s.rand.Derive("workers")
	for i := 0; i < s.cfg.Workers; i++ {
		w := &worker{
			id:    fmt.Sprintf("worker-%d", i+1),
			pos:   s.harvest.Add(geo.V(wr.Range(-25, 25), wr.Range(-25, 25))),
			speed: wr.Range(0.8, 1.4),
		}
		w.target = w.pos
		s.workers = append(s.workers, w)
	}

	sr := s.rand.Derive("sensors")
	s.fwGNSS = sensors.NewGNSS(sr)
	s.fwGuard = sensors.NewGNSSGuard()
	s.fwLidar = sensors.NewLidar(sr, s.grid)
	s.fwCamera = sensors.NewCamera(sr, s.grid)
	s.fwUltra = sensors.NewUltrasonic(sr)
	if s.cfg.DroneEnabled {
		s.droneCam = sensors.NewAerialCamera(sr, s.grid)
	}
	s.tracker = fusion.NewTracker(fusion.Options{ConfirmHits: s.cfg.ConfirmHits})
	s.safety = machine.NewSafetyController(s.forwarder)
	s.watchdog = machine.NewWatchdog(3 * time.Second)
	return nil
}

// Accessors used by the attack framework and experiment harnesses.

// Scheduler returns the simulation scheduler.
func (s *Site) Scheduler() *simclock.Scheduler { return s.sched }

// Medium returns the radio medium.
func (s *Site) Medium() *radio.Medium { return s.med }

// Grid returns the terrain grid.
func (s *Site) Grid() *geo.Grid { return s.grid }

// ForwarderGNSS returns the forwarder's GNSS receiver (attack surface).
func (s *Site) ForwarderGNSS() *sensors.GNSS { return s.fwGNSS }

// ForwarderCamera returns the forwarder's camera (attack surface).
func (s *Site) ForwarderCamera() *sensors.Camera { return s.fwCamera }

// DroneCamera returns the drone's aerial camera, nil when the drone is
// disabled.
func (s *Site) DroneCamera() *sensors.AerialCamera { return s.droneCam }

// AttackerAdapter returns the pre-provisioned (silent) attacker radio
// adapter.
func (s *Site) AttackerAdapter() *netsim.Adapter { return s.adapters[NodeAttacker] }

// Adapter returns a node's network adapter.
func (s *Site) Adapter(id radio.NodeID) *netsim.Adapter { return s.adapters[id] }

// IDS returns the intrusion detection engine (nil alerts when disabled).
func (s *Site) IDS() *ids.Engine { return s.engine }

// Forwarder returns the forwarder machine.
func (s *Site) Forwarder() *machine.Machine { return s.forwarder }

// Drone returns the drone machine, nil when disabled.
func (s *Site) Drone() *machine.Machine { return s.drone }

// Landing returns the landing-area centre.
func (s *Site) Landing() geo.Vec { return s.landing }

// Harvest returns the harvest-site centre.
func (s *Site) Harvest() geo.Vec { return s.harvest }

// CA returns the worksite certificate authority (secured profile only).
func (s *Site) CA() *pki.CA { return s.ca }

// OperatingMode returns the coordinator's current live-risk operating mode
// (ModeNormal when continuous risk assessment is disabled).
func (s *Site) OperatingMode() risk.OperatingMode {
	if s.assessor == nil {
		return risk.ModeNormal
	}
	return s.mode
}
