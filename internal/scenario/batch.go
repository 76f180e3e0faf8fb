package scenario

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/rng"
	"repro/internal/worksite"
)

// batchTemplateSeed roots the shared bundle's key material. Any seed works:
// key bytes never reach simulation-observable output (the key-blind test in
// this package and the worksim OpenBatch-vs-Open differential test lock
// this), so per-seed sessions built from the bundle stay byte-identical to
// independently built ones. Because the seed is fixed, a commissioner holds
// at most two secured bundles: one with the drone and one without.
const batchTemplateSeed int64 = 0

// Batch compiles one spec into a validated spec bound to a shared security
// bundle (CA, identities, established channels), and builds arbitrarily many
// cheap per-seed sessions from it. The bundle comes from a
// worksite.Commissioner, so every batch that shares a commissioner — every
// cell of a sweep, every run of a daemon — shares the bundle too, and no
// seed pays for keygen and four handshakes.
//
// A Batch is immutable after construction and safe for concurrent Build
// calls from pool workers; each built session is then run by its caller.
type Batch struct {
	spec Spec
	comm *worksite.Commissioner
}

// NewBatch validates the spec and commissions its shared security state
// before it returns, on a commissioner of its own, so a commissioning error
// surfaces here rather than at the first Build.
func NewBatch(spec Spec) (*Batch, error) {
	b, err := NewBatchWith(spec, &worksite.Commissioner{})
	if err != nil {
		return nil, err
	}
	if _, err := b.security(); err != nil {
		return nil, err
	}
	return b, nil
}

// NewBatchWith validates the spec and binds it to c. It does not commission:
// the first Build asks c for the bundle, which c builds only if no earlier
// batch on c needed the same one. A batch that never builds a session never
// commissions.
func NewBatchWith(spec Spec, c *worksite.Commissioner) (*Batch, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Batch{spec: spec, comm: c}, nil
}

// security returns the batch's shared bundle from its commissioner.
func (b *Batch) security() (*worksite.SharedSecurity, error) {
	sh, err := b.comm.Security(b.spec.Config(batchTemplateSeed))
	if err != nil {
		return nil, fmt.Errorf("scenario %q: commission shared security: %w", b.spec.Name, err)
	}
	return sh, nil
}

// Spec returns the batch's compiled spec.
func (b *Batch) Spec() Spec { return b.spec }

// Build compiles one per-seed session over the shared commissioned state,
// with the same contract as the package-level Build.
func (b *Batch) Build(seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	return b.BuildOn(nil, seed, d)
}

// BuildOn is Build with the session's random streams taken from slab, for a
// caller that runs one session after another and recycles their streams
// (see rng.Slab). The bytes are Build's. The slab must not be Reset while
// the session is in use.
func (b *Batch) BuildOn(slab *rng.Slab, seed int64, d time.Duration) (*worksite.Session, *attack.Campaign, error) {
	sh, err := b.security()
	if err != nil {
		return nil, nil, err
	}
	return buildShared(b.spec, sh, slab, seed, d)
}
