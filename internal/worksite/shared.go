package worksite

import (
	"fmt"
	"time"

	"repro/internal/rng"
)

// SharedSecurity is the seed-invariant half of security commissioning: the
// site CA, the issued machine identities, and the pairwise channels already
// taken through their handshakes. Sessions built over it fork the
// established channels instead of re-running keygen, issuance and four SIGMA
// handshakes. A Commissioner builds each distinct bundle once for its owner:
// a campaign sweep shares one bundle per drone setting across every cell and
// seed, and the worksimd daemon shares one per drone setting across every
// run it serves.
//
// Sharing key material across seeds, scenarios and jobs is sound because no
// simulation-observable byte depends on it: record lengths are
// key-independent, replay and decrypt rejections carry constant or
// sequence-derived detail, and packet-drop decisions are position- and
// rng-driven. Skipping the per-session "pki" and "handshakes" rng streams is
// equally invisible — rng.Derive children are independent, so sibling
// streams never shift. The key-blind test in internal/scenario (two bundles
// under different key seeds give identical bytes) and the OpenBatch-vs-Open
// differential test in the worksim facade lock both claims byte for byte.
//
// The bundle is immutable after CommissionSecurity returns and safe for
// concurrent forking from pool workers.
type SharedSecurity struct {
	droneEnabled bool
	secured      bool
	bundle       *securityBundle
}

// CommissionSecurity builds the shareable security bundle for cfg. For a
// profile without secure channels the bundle carries nothing and sessions
// commission as usual. The handshakes run on the commissioning clock
// (virtual time zero), exactly when every session would run its own.
func CommissionSecurity(cfg Config) (*SharedSecurity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := &SharedSecurity{droneEnabled: cfg.DroneEnabled, secured: cfg.Profile.SecureChannels}
	if !sh.secured {
		return sh, nil
	}
	b, err := buildSecurity(cfg.DroneEnabled, rng.New(cfg.Seed), func() time.Duration { return 0 })
	if err != nil {
		return nil, err
	}
	sh.bundle = b
	return sh, nil
}

// NewSessionShared is NewSession over a shared security bundle: the site
// adopts the bundle instead of re-running keygen and handshakes, and a nil
// bundle is the plain NewSession path. The site's random streams come from
// slab (see rng.Slab), or fresh ones when slab is nil; a caller that passes
// a slab must not Reset it while the session is in use.
func NewSessionShared(cfg Config, sh *SharedSecurity, slab *rng.Slab) (*Session, error) {
	if sh != nil {
		if sh.droneEnabled != cfg.DroneEnabled {
			return nil, fmt.Errorf("worksite: shared security was commissioned with droneEnabled=%v, config wants %v", sh.droneEnabled, cfg.DroneEnabled)
		}
		if cfg.Profile.SecureChannels && !sh.secured {
			return nil, fmt.Errorf("worksite: config wants secure channels but the shared bundle was commissioned without them")
		}
	}
	site, err := newSite(cfg, sh, slab)
	if err != nil {
		return nil, err
	}
	return &Session{site: site}, nil
}
