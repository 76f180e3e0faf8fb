// Package resultcache is a content-addressed, file-backed cache for
// completed simulation runs: the layer that makes repeated campaigns cheap.
// A cache entry is keyed on everything that shapes a run's outcome — the
// canonical scenario-spec hash (profile included), the profile name for
// auditability, the seed, the simulated duration, the sampling interval, the
// named early-stop predicate and the engine version — so two runs share an
// entry exactly when the engine guarantees them byte-identical results.
//
// Layout and safety: an entry lives at <root>/<id[:2]>/<id>.json where id is
// the SHA-256 of the key's canonical JSON. The file is an envelope carrying
// the full key (for audit and collision detection), the SHA-256 of the
// payload bytes, and the payload itself. Writes go through a temp file and
// an atomic rename, so a reader never observes a partial entry; any file may
// be deleted at any time (eviction is `rm`), which reads as a miss; and a
// truncated, bit-flipped or otherwise damaged entry fails its checksum or
// key comparison, is counted as corrupt, removed, and recomputed — a damaged
// entry is never trusted.
//
// The same store is also the sweep's checkpoint: campaign.Sweep opens a
// second Cache at SweepOptions.CheckpointDir and stores every fresh run in
// it, so a killed campaign resumes by looking its runs up there. Because
// entries are addressed by the full key, sharded processes may share one
// checkpoint directory, and runs of a differently-shaped campaign simply
// miss. Old shard-*-of-*.jsonl journals in that directory are ignored.
//
// The cache deliberately stores no wall-clock metadata: entries are pure
// functions of their key, so the package stays inside the repo's
// determinism perimeter.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Key addresses one cached run. Every field participates in the content
// address; none carries an omitempty tag, so the canonical key bytes are a
// fixed-shape JSON document.
type Key struct {
	// SpecHash is the canonical scenario-spec hash (scenario.Spec.Hash) of
	// the profile-resolved spec the run executed.
	SpecHash string `json:"specHash"`
	// Profile is the security-profile name, kept alongside the hash for
	// auditability even though the hash already covers the resolved profile.
	Profile string `json:"profile"`
	// Seed roots every random stream of the run.
	Seed int64 `json:"seed"`
	// DurationNs is the simulated duration.
	DurationNs int64 `json:"durationNs"`
	// SampleNs is the timeseries sampling interval (0 = no sampling).
	SampleNs int64 `json:"sampleNs"`
	// EarlyStop is the named early-stop predicate ("" = none). Unnamed
	// predicates cannot be cached — a bare func has no content address.
	EarlyStop string `json:"earlyStop"`
	// Engine is the engine version that produced the result.
	Engine string `json:"engine"`
}

// ID returns the entry's content address: SHA-256 hex over the key's
// canonical JSON. Changing any key field changes the ID.
func (k Key) ID() string {
	b, err := json.Marshal(k)
	if err != nil {
		// A struct of strings and ints cannot fail to marshal.
		panic("resultcache: marshal key: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from a verified entry.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found no entry.
	Misses int64 `json:"misses"`
	// Corrupt counts entries rejected by checksum, key or decode failure.
	Corrupt int64 `json:"corrupt"`
	// Stored counts successful Puts.
	Stored int64 `json:"stored"`
}

// Cache is a file-backed result cache rooted at one directory. All methods
// are safe for concurrent use by any number of goroutines and processes
// (cross-process safety comes from the atomic-rename write path).
type Cache struct {
	root string

	hits, misses, corrupt, stored atomic.Int64
}

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{root: dir}, nil
}

// Root returns the cache's root directory.
func (c *Cache) Root() string { return c.root }

// entry is the on-disk envelope of one cached run.
type entry struct {
	// Key is the full content-address key, stored for audit and compared on
	// read so a hash collision (or a file copied to the wrong address) can
	// never serve a foreign result.
	Key Key `json:"key"`
	// PayloadSHA256 checksums the exact payload bytes below.
	PayloadSHA256 string `json:"payloadSha256"`
	// Payload is the cached run record, opaque to the cache.
	Payload json.RawMessage `json:"payload"`
}

// path maps an ID to its entry file, fanned out over a two-hex-digit prefix
// directory so huge caches stay listable.
func (c *Cache) path(id string) string {
	return filepath.Join(c.root, id[:2], id+".json")
}

// Get looks k up and, on a verified hit, unmarshals the stored payload into
// into and returns true. A missing entry is a miss (false, nil). A damaged
// entry — undecodable envelope, key mismatch, checksum mismatch, or a
// payload that no longer unmarshals — is counted corrupt, removed so it
// cannot damage a later run, and reported as a miss: callers always
// recompute rather than trust it. A non-nil error is an I/O failure, not a
// miss.
func (c *Cache) Get(k Key, into any) (bool, error) {
	id := k.ID()
	b, err := os.ReadFile(c.path(id))
	if errors.Is(err, os.ErrNotExist) {
		c.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("resultcache: read %s: %w", id, err)
	}
	var e entry
	if json.Unmarshal(b, &e) != nil || e.Key != k {
		return c.reject(id), nil
	}
	sum := sha256.Sum256(e.Payload)
	if hex.EncodeToString(sum[:]) != e.PayloadSHA256 {
		return c.reject(id), nil
	}
	if json.Unmarshal(e.Payload, into) != nil {
		return c.reject(id), nil
	}
	c.hits.Add(1)
	return true, nil
}

// reject counts and removes a damaged entry. Removal is best-effort: even if
// it fails the caller recomputes, and the next Put overwrites atomically.
func (c *Cache) reject(id string) bool {
	c.corrupt.Add(1)
	os.Remove(c.path(id))
	return false
}

// Put stores payload under k. The write is atomic (temp file + rename in
// the entry's own directory), so concurrent readers and crashed writers
// never surface a partial entry.
func (c *Cache) Put(k Key, payload any) error {
	pb, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resultcache: marshal payload: %w", err)
	}
	sum := sha256.Sum256(pb)
	eb, err := json.Marshal(entry{Key: k, PayloadSHA256: hex.EncodeToString(sum[:]), Payload: pb})
	if err != nil {
		return fmt.Errorf("resultcache: marshal entry: %w", err)
	}
	path := c.path(k.ID())
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(eb); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: write entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: close entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: commit entry: %w", err)
	}
	c.stored.Add(1)
	return nil
}

// Stats snapshots the hit/miss/corrupt/stored counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Stored:  c.stored.Load(),
	}
}
