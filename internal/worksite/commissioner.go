package worksite

import "sync"

// A Commissioner hands out shared security bundles and builds each distinct
// bundle at most once. A bundle depends only on what CommissionSecurity
// reads: the config's seed, whether the drone is enabled, and whether the
// profile runs secure channels. Every other config field may differ between
// the sessions that share it.
//
// A Commissioner keeps every bundle it built for as long as it lives, so it
// belongs to one owner whose lifetime bounds the reuse: a sweep, or a
// daemon. The zero value is ready to use and safe for concurrent use.
type Commissioner struct {
	mu      sync.Mutex
	bundles map[commissionKey]*commission
}

// commissionKey is the part of a Config that CommissionSecurity reads.
type commissionKey struct {
	seed    int64
	drone   bool
	secured bool
}

// commission is one bundle, built by the first caller that asks for it.
type commission struct {
	once sync.Once
	sh   *SharedSecurity
	err  error
}

// Security returns the shared security bundle for cfg, commissioning it on
// the first request for its key. The config is validated on every call, so
// an invalid config is rejected without ever being the one that commissions
// a key other configs share.
func (c *Commissioner) Security(cfg Config) (*SharedSecurity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := commissionKey{seed: cfg.Seed, drone: cfg.DroneEnabled, secured: cfg.Profile.SecureChannels}
	c.mu.Lock()
	if c.bundles == nil {
		c.bundles = make(map[commissionKey]*commission)
	}
	e := c.bundles[k]
	if e == nil {
		e = &commission{}
		c.bundles[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.sh, e.err = CommissionSecurity(cfg) })
	return e.sh, e.err
}
