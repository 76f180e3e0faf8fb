// Package shard deterministically partitions the scenario × profile × seed
// campaign cube so a sweep can run as N independent processes (or machines)
// whose merged output is byte-identical to a single-process sweep.
//
// The partition is a pure function of the run key: Assign hashes the
// (scenario, profile, seed) triple with FNV-1a 64 and reduces it modulo the
// shard count. Nothing about enumeration order, pool width, host or process
// enters the hash, so every participant of a campaign — the shard processes,
// the merge step validating coverage, a scheduler placing work — agrees on
// ownership without coordination. The assignment for a fixed key and count
// is part of the shard/merge contract and is locked by a golden test;
// changing the hash invalidates in-flight sharded campaigns and must bump
// the engine version.
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// Key identifies one run of the sweep cube: a named catalog scenario under a
// named security profile at one seed. It is the unit of shard ownership.
type Key struct {
	Scenario string
	Profile  string
	Seed     int64
}

// String renders the key as "scenario/profile/seed" for messages and logs.
func (k Key) String() string {
	return k.Scenario + "/" + k.Profile + "/" + strconv.FormatInt(k.Seed, 10)
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Assign maps a run key to its owning shard in [0, count). count <= 1 is the
// unsharded case and always yields shard 0. The hash covers the
// NUL-separated key fields plus the seed as eight big-endian bytes, so
// distinct keys that concatenate equally ("a"+"bc" vs "ab"+"c") stay
// distinct.
func Assign(k Key, count int) int {
	if count <= 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	h = fnvString(h, k.Scenario)
	h = fnvByte(h, 0)
	h = fnvString(h, k.Profile)
	h = fnvByte(h, 0)
	for shift := 56; shift >= 0; shift -= 8 {
		h = fnvByte(h, byte(uint64(k.Seed)>>uint(shift)))
	}
	return int(h % uint64(count))
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// Sel selects one shard of a partitioned campaign: this process runs shard
// Index of Count. The zero value selects the whole cube (unsharded).
type Sel struct {
	// Index is the zero-based shard this process owns.
	Index int
	// Count is the total shard count; 0 or 1 means unsharded.
	Count int
}

// Enabled reports whether the selector actually partitions the cube.
func (s Sel) Enabled() bool { return s.Count > 1 }

// Validate checks the selector invariants: a non-negative count and an index
// inside [0, Count) (the zero value is valid and means unsharded).
func (s Sel) Validate() error {
	if s.Count < 0 {
		return fmt.Errorf("shard: negative shard count %d", s.Count)
	}
	if s.Count <= 1 {
		if s.Index != 0 {
			return fmt.Errorf("shard: index %d without a shard count (want 0 or an i/N selector)", s.Index)
		}
		return nil
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard: index %d out of range [0, %d)", s.Index, s.Count)
	}
	return nil
}

// Owns reports whether this selector's shard owns the run key. An unsharded
// selector owns everything.
func (s Sel) Owns(k Key) bool {
	return !s.Enabled() || Assign(k, s.Count) == s.Index
}

// String renders the selector in the "i/N" form Parse accepts.
func (s Sel) String() string {
	count := s.Count
	if count < 1 {
		count = 1
	}
	return fmt.Sprintf("%d/%d", s.Index, count)
}

// Parse reads an "i/N" shard selector (as in `campaign -shard 1/4`): shard
// index i of N total shards, i in [0, N).
func Parse(str string) (Sel, error) {
	idx, cnt, ok := strings.Cut(str, "/")
	if !ok {
		return Sel{}, fmt.Errorf("shard: selector %q is not of the form i/N", str)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return Sel{}, fmt.Errorf("shard: selector %q: bad index: %v", str, err)
	}
	n, err := strconv.Atoi(cnt)
	if err != nil {
		return Sel{}, fmt.Errorf("shard: selector %q: bad count: %v", str, err)
	}
	if n < 1 {
		return Sel{}, fmt.Errorf("shard: selector %q: count must be at least 1", str)
	}
	if i < 0 || i >= n {
		return Sel{}, fmt.Errorf("shard: selector %q: index out of range [0, %d)", str, n)
	}
	return Sel{Index: i, Count: n}, nil
}
