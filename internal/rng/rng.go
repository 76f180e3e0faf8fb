// Package rng provides deterministic, stream-splittable randomness for the
// forestry worksite simulator.
//
// Every stochastic component of the simulation (radio fading, sensor noise,
// worker movement, attack timing) draws from a Rand derived from a single
// experiment seed. Derivation is by name, so adding a new consumer does not
// perturb the streams of existing ones — a property the benchmark harness
// relies on when comparing secured vs. unsecured runs of the same scenario.
package rng

import (
	"math"
	"math/rand"
)

// Rand is a deterministic random stream. It wraps math/rand with a
// name-derivation scheme so that independent simulation components receive
// independent, reproducible sub-streams.
type Rand struct {
	src  *rand.Rand
	seed uint64
	slab *Slab // where Derive takes its streams; nil allocates fresh ones
}

// New returns a Rand rooted at the given experiment seed.
func New(seed int64) *Rand {
	u := uint64(seed)
	return &Rand{src: rand.New(rand.NewSource(int64(mix(u)))), seed: u}
}

// Derive returns a new independent stream identified by name. Streams derived
// with the same (seed, name) pair are identical across runs; streams with
// different names are statistically independent. A stream from a Slab
// derives its children from the same slab.
func (r *Rand) Derive(name string) *Rand {
	child := mix(r.seed ^ fnv64a(name))
	if r.slab != nil {
		return r.slab.stream(int64(child), child)
	}
	return &Rand{src: rand.New(rand.NewSource(int64(child))), seed: child}
}

// fnv64a is the 64-bit FNV-1a hash of s, as hash/fnv computes it, without
// converting s to a byte slice.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// A Slab recycles the generators behind random streams, so a caller that
// builds one run after another reuses each stream's 4.9 KB math/rand state
// instead of allocating it again. A recycled generator is re-seeded in
// place, which leaves it in the state a fresh one would have, so a stream
// from a slab draws exactly what New or Derive would give.
//
// A slab backs one run at a time and is not safe for concurrent use. The
// zero value is ready to use.
type Slab struct {
	rands []*Rand
	used  int
}

// New returns a Rand rooted at seed, like the package-level New, whose
// derived streams (and theirs) come from the slab. A nil slab allocates
// fresh streams.
func (sl *Slab) New(seed int64) *Rand {
	if sl == nil {
		return New(seed)
	}
	u := uint64(seed)
	return sl.stream(int64(mix(u)), u)
}

// Reset hands every stream the slab gave out back to it. Those streams must
// not be used afterwards: the slab re-seeds them for its next run.
func (sl *Slab) Reset() { sl.used = 0 }

// stream returns the slab's next generator seeded with srcSeed, deriving
// its children from seed.
func (sl *Slab) stream(srcSeed int64, seed uint64) *Rand {
	if sl.used == len(sl.rands) {
		sl.rands = append(sl.rands, &Rand{src: rand.New(rand.NewSource(srcSeed)), slab: sl})
	} else {
		sl.rands[sl.used].src.Seed(srcSeed)
	}
	r := sl.rands[sl.used]
	r.seed = seed
	sl.used++
	return r
}

// mix is a splitmix64 finalizer; it decorrelates nearby seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Norm returns a normally distributed value with the given mean and standard
// deviation.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (events per unit time). Rate must be > 0; a non-positive rate yields +Inf.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.src.ExpFloat64() / rate
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Read fills p with pseudo-random bytes, making *Rand usable as an io.Reader
// for deterministic key generation in tests and reproducible experiments.
// It never returns an error.
func (r *Rand) Read(p []byte) (int, error) { return r.src.Read(p) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Pick returns a uniformly chosen index weighted by weights. Weights must be
// non-negative; if all weights are zero Pick returns 0.
func (r *Rand) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.src.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
