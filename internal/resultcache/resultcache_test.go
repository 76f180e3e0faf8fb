package resultcache

// Result-cache tests: the content address must cover every key field; a
// damaged record — bit-flipped, garbled, or carrying another key's bytes —
// must always be detected, counted and recomputed, never trusted; an
// incomplete final record is a plain miss; any number of writers may share
// one root; and compaction keeps every record a Cache could serve.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func baseKey() Key {
	return Key{
		SpecHash:   strings.Repeat("ab", 32),
		Profile:    "secured",
		Seed:       7,
		DurationNs: int64(240e9),
		SampleNs:   0,
		EarlyStop:  "",
		Engine:     "0.6.0",
	}
}

// get looks k up with a decoder that copies the payload out.
func get(c *Cache, k Key) (payload []byte, hit bool, err error) {
	hit, err = c.GetBytes(k, func(b []byte) error {
		payload = append([]byte(nil), b...)
		return nil
	})
	return payload, hit, err
}

// TestRoundTrip: PutBytes then GetBytes hands the decoder the exact payload
// and counts one store, one hit.
func TestRoundTrip(t *testing.T) {
	c := open(t, t.TempDir())
	k := baseKey()
	in := []byte("\x00\x01opaque\xff")
	if err := c.PutBytes(k, in); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	out, hit, err := get(c, k)
	if err != nil || !hit {
		t.Fatalf("GetBytes = (%v, %v), want hit", hit, err)
	}
	if !bytes.Equal(out, in) {
		t.Fatalf("payload mismatch: got %q, want %q", out, in)
	}
	st := c.Stats()
	if st.Stored != 1 || st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 stored / 1 hit", st)
	}
}

// TestJSONPayloads: Put and Get round-trip a value through encoding/json,
// and a stored payload that does not unmarshal is counted corrupt.
func TestJSONPayloads(t *testing.T) {
	type record struct {
		Metrics map[string]float64 `json:"metrics"`
		Note    string             `json:"note,omitempty"`
	}
	c := open(t, t.TempDir())
	k := baseKey()
	in := record{Metrics: map[string]float64{"logs": 12, "collisions": 0}, Note: "x"}
	if err := c.Put(k, in); err != nil {
		t.Fatalf("Put: %v", err)
	}
	var out record
	if hit, err := c.Get(k, &out); err != nil || !hit {
		t.Fatalf("Get = (%v, %v), want hit", hit, err)
	}
	if out.Note != in.Note || out.Metrics["logs"] != 12 || len(out.Metrics) != 2 {
		t.Fatalf("payload mismatch: got %+v", out)
	}
	if err := c.Put(k, math.NaN()); err == nil {
		t.Fatal("Put of a value encoding/json rejects succeeded")
	}
	other := runKey(99)
	if err := c.PutBytes(other, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if hit, err := c.Get(other, &out); hit || err != nil {
		t.Fatalf("Get of a non-JSON payload = (%v, %v), want a miss", hit, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 hit and 1 corrupt", st)
	}
}

// TestDecodeRejects: a payload the caller's decoder rejects is counted
// corrupt, and one it reports as ErrOtherFormat is a plain miss; either
// way the record reads as a miss from then on, and the record stored
// next is served.
func TestDecodeRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		err                 error
		wantCorrupt, misses int64
	}{
		"damaged":      {errors.New("bad payload"), 1, 1},
		"other format": {fmt.Errorf("version 0: %w", ErrOtherFormat), 0, 2},
	} {
		t.Run(name, func(t *testing.T) {
			c := open(t, t.TempDir())
			k := baseKey()
			if err := c.PutBytes(k, []byte("old")); err != nil {
				t.Fatal(err)
			}
			calls := 0
			reject := func([]byte) error { calls++; return tc.err }
			for i := 0; i < 2; i++ {
				if hit, err := c.GetBytes(k, reject); hit || err != nil {
					t.Fatalf("Get %d = (%v, %v), want a miss", i, hit, err)
				}
			}
			if st := c.Stats(); calls != 1 || st.Corrupt != tc.wantCorrupt || st.Misses != tc.misses {
				t.Fatalf("%d decodes, stats %+v: want 1 decode, %d corrupt and %d misses",
					calls, st, tc.wantCorrupt, tc.misses)
			}
			if err := c.PutBytes(k, []byte("new")); err != nil {
				t.Fatal(err)
			}
			if out, hit, err := get(c, k); !hit || err != nil || string(out) != "new" {
				t.Fatalf("Get after the re-Put = (%q, %v, %v), want the new record", out, hit, err)
			}
		})
	}
}

// TestKeyBytes: the key bytes built by appends equal json.Marshal(k), the
// address every earlier record was stored under, for plain keys and for
// keys whose strings take the encoding/json fallback.
func TestKeyBytes(t *testing.T) {
	keys := []Key{
		{},
		baseKey(),
		{SpecHash: "日本—ß", Profile: "\u00a0", Seed: math.MinInt64, DurationNs: math.MaxInt64, SampleNs: -1,
			EarlyStop: "first-alert", Engine: "0.9.0+dirty"},
		{Profile: "a<b>&c", EarlyStop: "quote\"back\\slash", Engine: "\n\t\x00\x7f"},
		{SpecHash: "\xff\xfe", Profile: "\u2028", Engine: "\u2029"},
	}
	for _, k := range keys {
		want, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.appendBytes([]byte("prefix")); string(got) != "prefix"+string(want) {
			t.Errorf("key bytes of %+v:\n got %s\nwant prefix%s", k, got, want)
		}
	}
}

// TestMiss: an absent key is a miss, not an error.
func TestMiss(t *testing.T) {
	c := open(t, t.TempDir())
	_, hit, err := get(c, baseKey())
	if err != nil || hit {
		t.Fatalf("Get on empty cache = (%v, %v), want clean miss", hit, err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

// TestKeySensitivity: changing any single key field changes the canonical
// key bytes, the record's address — the property that makes a stale or foreign hit impossible.
func TestKeySensitivity(t *testing.T) {
	base := baseKey()
	variants := map[string]Key{}
	k := base
	k.SpecHash = strings.Repeat("cd", 32)
	variants["specHash"] = k
	k = base
	k.Profile = "unsecured"
	variants["profile"] = k
	k = base
	k.Seed = 8
	variants["seed"] = k
	k = base
	k.DurationNs++
	variants["durationNs"] = k
	k = base
	k.SampleNs = int64(1e9)
	variants["sampleNs"] = k
	k = base
	k.EarlyStop = "collision"
	variants["earlyStop"] = k
	k = base
	k.Engine = "0.7.0"
	variants["engine"] = k

	ids := map[string]string{"": string(base.appendBytes(nil))}
	for field, v := range variants {
		id := string(v.appendBytes(nil))
		if id == ids[""] {
			t.Errorf("changing %s did not change the key bytes", field)
		}
		for prev, prevID := range ids {
			if id == prevID {
				t.Errorf("variants %q and %q collide on key bytes %s", field, prev, id)
			}
		}
		ids[field] = id
	}

	// And the cache behaves accordingly: an entry stored under the base key
	// is invisible to every variant.
	c := open(t, t.TempDir())
	if err := c.PutBytes(base, []byte("base")); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	for field, v := range variants {
		_, hit, err := get(c, v)
		if err != nil {
			t.Fatalf("Get(%s variant): %v", field, err)
		}
		if hit {
			t.Errorf("variant %q hit the base entry", field)
		}
	}
}

// open opens a cache at dir and closes it when the test ends.
func open(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// putAll opens a cache at dir, stores payload under every key, and closes
// it, leaving one segment of complete records behind.
func putAll(t *testing.T, dir string, p []byte, keys ...Key) {
	t.Helper()
	c := open(t, dir)
	for _, k := range keys {
		if err := c.PutBytes(k, p); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// segmentPath locates segment n of a cache root.
func segmentPath(t *testing.T, dir string, n int) string {
	t.Helper()
	p := filepath.Join(dir, fmt.Sprintf("seg-%d", n))
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("segment %s: %v", p, err)
	}
	return p
}

// writeSegment stores runPayload(seed) under runKey(seed) for every seed
// with one Cache and closes it, leaving seg-1 behind. It returns where each
// record starts and where the records end and the table begins.
func writeSegment(t *testing.T, dir string, seeds ...int64) (starts []int64, end int64) {
	t.Helper()
	c := open(t, dir)
	for _, s := range seeds {
		starts = append(starts, c.end)
		if err := c.PutBytes(runKey(s), runPayload(s)); err != nil {
			t.Fatal(err)
		}
	}
	end = c.end
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return starts, end
}

// damageSegment rewrites seg-1 of dir as mutate makes it of its bytes and
// the offset where its records end.
func damageSegment(t *testing.T, dir string, end int64, mutate func(b []byte, end int) []byte) {
	t.Helper()
	p := segmentPath(t, dir, 1)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(p, mutate(b, int(end)), 0o644); err != nil {
		t.Fatalf("write damaged segment: %v", err)
	}
}

// TestCorruptionDetected: a bit flip and a garbled header are rejected by
// checksum or header parse, counted as corrupt, and reported as a miss so
// the caller recomputes; truncation leaves an incomplete final record,
// which is a plain miss. Either way the recomputed record shadows the
// damage for every later Open.
func TestCorruptionDetected(t *testing.T) {
	damage := map[string]struct {
		mutate      func(b []byte, end int) []byte
		wantCorrupt int64
	}{
		"truncated": {func(b []byte, end int) []byte { return b[:end/2] }, 0},
		"bit-flip": {func(b []byte, end int) []byte {
			// Flip one bit inside the payload section (past the header and
			// key: the last 5 bytes, "run-1"), where only the checksum can
			// catch it.
			b[end-2] ^= 0x01
			return b
		}, 1},
		"empty":              {func([]byte, int) []byte { return nil }, 0},
		"not-a-segment":      {func([]byte, int) []byte { return []byte("not an entry at all") }, 1},
		"truncated-one-byte": {func(b []byte, end int) []byte { return b[:end-1] }, 0},
	}
	for name, d := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			_, end := writeSegment(t, dir, 1)
			damageSegment(t, dir, end, d.mutate)

			c := open(t, dir)
			_, hit, err := get(c, runKey(1))
			if err != nil {
				t.Fatalf("Get on damaged record: %v", err)
			}
			if hit {
				t.Fatal("damaged record served as a hit")
			}
			if st := c.Stats(); st.Corrupt != d.wantCorrupt || st.Hits != 0 {
				t.Fatalf("stats = %+v, want %d corrupt and no hit", st, d.wantCorrupt)
			}
			// The damaged record is gone from the index: asking again is a
			// plain miss, not a second corruption.
			if _, hit, err := get(c, runKey(1)); hit || err != nil {
				t.Fatalf("second Get = (%v, %v), want clean miss", hit, err)
			}
			if st := c.Stats(); st.Corrupt != d.wantCorrupt {
				t.Fatalf("stats after second Get = %+v, want corruption counted once", st)
			}
			// Recompute path: a fresh Put lands in a later segment and heals
			// the key for every later Open.
			if err := c.PutBytes(runKey(1), runPayload(1)); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
			c.Close()
			if c := open(t, dir); !checkGet(t, c, 1) || c.Stats().Corrupt != 0 {
				t.Fatalf("after heal: stats %+v, want a hit and 0 corrupt", c.Stats())
			}
		})
	}
}

// TestHeaderDamage: a damaged header in the middle of a segment — a
// flipped magic byte, or a flipped high bit of a payload length — fails the
// header CRC. In a closed segment, whose table places every record, only
// that record is lost: its Get counts one corrupt. In a segment a killed
// writer left without a table, the scan cannot step past the header: it
// counts one corrupt at Open, the records before it are served, and it and
// every record after it read as plain misses. The compaction that damage
// triggers copies the survivors and deletes the segment, so the next Open
// counts nothing.
func TestHeaderDamage(t *testing.T) {
	for name, flip := range map[string]struct {
		off  int // byte of the second record's header
		mask byte
	}{
		"magic":           {0, 0x01},
		"length-high-bit": {8 + 3, 0x80},
	} {
		t.Run(name+"/closed", func(t *testing.T) {
			dir := t.TempDir()
			starts, end := writeSegment(t, dir, 1, 2, 3)
			damageSegment(t, dir, end, func(b []byte, _ int) []byte {
				b[starts[1]+int64(flip.off)] ^= flip.mask
				return b
			})
			c := open(t, dir)
			if !checkGet(t, c, 1) || checkGet(t, c, 2) || !checkGet(t, c, 3) {
				t.Fatal("want seeds 1 and 3 served and the damaged seed 2 missed")
			}
			if st := c.Stats(); st.Corrupt != 1 || st.Hits != 2 || st.Misses != 0 {
				t.Fatalf("stats = %+v, want 1 corrupt, 2 hits", st)
			}
		})
		t.Run(name+"/killed", func(t *testing.T) {
			dir := t.TempDir()
			starts, end := writeSegment(t, dir, 1, 2, 3)
			damageSegment(t, dir, end, func(b []byte, end int) []byte {
				b[starts[1]+int64(flip.off)] ^= flip.mask
				return b[:end]
			})
			c := open(t, dir)
			if st := c.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats after Open = %+v, want 1 corrupt", st)
			}
			if !checkGet(t, c, 1) {
				t.Fatal("record before the damage was lost")
			}
			if checkGet(t, c, 2) || checkGet(t, c, 3) {
				t.Fatal("record at or after the damaged header served")
			}
			if st := c.Stats(); st.Corrupt != 1 || st.Hits != 1 || st.Misses != 2 {
				t.Fatalf("stats = %+v, want 1 corrupt, 1 hit, 2 misses", st)
			}
			c.Close()
			if got := segmentNames(t, dir); got != "seg-2" {
				t.Fatalf("after compaction the root holds %q, want \"seg-2\"", got)
			}
			c = open(t, dir)
			if !checkGet(t, c, 1) || c.Stats().Corrupt != 0 {
				t.Fatalf("compacted root: stats %+v, want the survivor served and 0 corrupt", c.Stats())
			}
		})
	}
}

// segmentNames lists a cache root, space-separated.
func segmentNames(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return strings.Join(names, " ")
}

// TestCompaction: compactAt idle segments are merged at Open into one
// segment of their unshadowed records, which every later Open serves; a
// segment a live Cache is writing is left alone, and a root with fewer idle
// segments is left as it is.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	live := open(t, dir)
	if err := live.PutBytes(runKey(100), runPayload(100)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= compactAt; i++ {
		c := open(t, dir)
		// Seed 0 is stored by every writer: seven of its records are
		// shadowed.
		for _, s := range []int64{i, 0} {
			if err := c.PutBytes(runKey(s), runPayload(s)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	if got := segmentNames(t, dir); got != "seg-1 seg-2 seg-3 seg-4 seg-5 seg-6 seg-7 seg-8 seg-9" {
		t.Fatalf("before compaction the root holds %q", got)
	}

	c := open(t, dir)
	if got := segmentNames(t, dir); got != "seg-1 seg-10" {
		t.Fatalf("after compaction the root holds %q, want the live segment and one copy", got)
	}
	for s := int64(0); s <= compactAt; s++ {
		if !checkGet(t, c, s) {
			t.Fatalf("seed %d missed after compaction", s)
		}
	}
	if !checkGet(t, c, 100) {
		t.Fatal("the live writer's record missed")
	}
	if st := c.Stats(); st.Corrupt != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want only hits", st)
	}
	// The copy holds each unshadowed record once.
	b, err := os.ReadFile(filepath.Join(dir, "seg-10"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), magic); n != compactAt+1 {
		t.Fatalf("seg-10 holds %d records, want %d", n, compactAt+1)
	}
	c.Close()
	live.Close()
	c = open(t, dir)
	if got := segmentNames(t, dir); got != "seg-1 seg-10" {
		t.Fatalf("a root with two idle segments was compacted: %q", got)
	}
	for s := int64(0); s <= compactAt; s++ {
		if !checkGet(t, c, s) {
			t.Fatalf("seed %d missed after reopening", s)
		}
	}
}

// TestConcurrentCompaction: Caches opening one root at once, each finding
// compactAt idle segments, split the compaction between them by the
// segment locks, and each still serves every record stored before it
// opened; so does a later Open.
func TestConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	for s := int64(0); s < compactAt; s++ {
		writeSegment(t, dir, s, 100+s)
	}
	caches := make([]*Cache, 3)
	var wg sync.WaitGroup
	for i := range caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Open(dir)
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			caches[i] = c
		}()
	}
	wg.Wait()
	for _, c := range caches {
		if c == nil {
			t.FailNow()
		}
		t.Cleanup(func() { c.Close() })
	}
	check := func(c *Cache) {
		t.Helper()
		for s := int64(0); s < compactAt; s++ {
			if !checkGet(t, c, s) || !checkGet(t, c, 100+s) {
				t.Fatalf("seed %d or %d missed", s, 100+s)
			}
		}
		if st := c.Stats(); st.Corrupt != 0 || st.Misses != 0 {
			t.Fatalf("stats = %+v, want only hits", st)
		}
	}
	for _, c := range caches {
		check(c)
	}
	for _, c := range caches {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check(open(t, dir))
}

// TestWrongAddress: a record rewritten to carry another key's bytes, under
// a well-formed header with the original checksum, fails the checksum, so
// it can never serve its payload under the foreign key.
func TestWrongAddress(t *testing.T) {
	dir := t.TempDir()
	k := runKey(1)
	_, end := writeSegment(t, dir, 1)
	b, err := os.ReadFile(segmentPath(t, dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	other := runKey(99)
	kb, ob := k.appendBytes(nil), other.appendBytes(nil)
	pb := b[headerSize+len(kb) : end]
	forged := append(append(make([]byte, headerSize), ob...), pb...)
	putHeader(forged, magic, len(ob), len(pb), [sha256.Size]byte(b[12:]))
	if err := os.WriteFile(filepath.Join(dir, "seg-2"), forged, 0o644); err != nil {
		t.Fatal(err)
	}

	c := open(t, dir)
	_, hit, err := get(c, other)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if hit {
		t.Fatal("record at the wrong address served as a hit")
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt", st)
	}
	if !checkGet(t, c, 1) {
		t.Fatal("original record missed")
	}
}

// TestEvictionIsRemove: deleting a segment (or the whole cache root) reads
// as a plain miss from the next Open on — eviction needs no index
// maintenance.
func TestEvictionIsRemove(t *testing.T) {
	for name, evict := range map[string]func(dir string) error{
		"segment": func(dir string) error { return os.Remove(filepath.Join(dir, "seg-1")) },
		"root":    os.RemoveAll,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			k := baseKey()
			putAll(t, dir, []byte("x"), k)
			if err := evict(dir); err != nil {
				t.Fatal(err)
			}
			c := open(t, dir)
			_, hit, err := get(c, k)
			if err != nil || hit {
				t.Fatalf("Get after eviction = (%v, %v), want clean miss", hit, err)
			}
			if st := c.Stats(); st.Corrupt != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want a miss and no corruption", st)
			}
		})
	}
}

// TestLayout: a cache root holds nothing but flat segment files — one per
// writing Cache, numbered in claim order — and a Cache that only reads
// creates none.
func TestLayout(t *testing.T) {
	dir := t.TempDir()
	k := baseKey()
	other := k
	other.Seed++
	putAll(t, dir, []byte("x"), k, other)
	if _, hit, err := get(open(t, dir), k); !hit || err != nil {
		t.Fatalf("Get = (%v, %v), want hit", hit, err)
	}
	putAll(t, dir, []byte("y"), other)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if !e.Type().IsRegular() {
			t.Errorf("%s is not a regular file: segments are flat", e.Name())
		}
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "seg-1 seg-2" {
		t.Fatalf("cache root holds %q, want \"seg-1 seg-2\"", got)
	}
	// seg-2 shadows seg-1's record for other.
	if out, hit, err := get(open(t, dir), other); !hit || err != nil || string(out) != "y" {
		t.Fatalf("Get(other) = (%v, %v, %q), want the later record", hit, err, out)
	}
}

// TestOpenRejectsEmptyDir: an empty root is a configuration error.
func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") unexpectedly succeeded")
	}
}

// TestPutAfterClose: a closed cache refuses to store.
func TestPutAfterClose(t *testing.T) {
	c := open(t, t.TempDir())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBytes(baseKey(), nil); err == nil {
		t.Fatal("Put on a closed cache succeeded")
	}
}

// runPayload is the payload the concurrency and fuzz tests store under
// runKey(seed): a pure function of the key, so any hit can be checked.
func runPayload(seed int64) []byte {
	return []byte(fmt.Sprint("run-", seed))
}

func runKey(seed int64) Key {
	k := baseKey()
	k.Seed = seed
	return k
}

// checkGet looks runKey(seed) up and fails on an error or on a hit whose
// payload is not the one stored for that key. It reports whether it hit.
func checkGet(t *testing.T, c *Cache, seed int64) bool {
	t.Helper()
	out, hit, err := get(c, runKey(seed))
	if err != nil {
		t.Fatalf("Get(seed %d): %v", seed, err)
	}
	if hit && !bytes.Equal(out, runPayload(seed)) {
		t.Fatalf("Get(seed %d) hit with payload %q, want %q", seed, out, runPayload(seed))
	}
	return hit
}

// TestConcurrentWriters: two Caches on one root, each Put from several
// goroutines, store overlapping and disjoint keys while reading each
// other's keys; a third Open then hits every key with its own payload.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const (
		workers = 4
		shared  = 32 // seeds [0, shared) are stored by both caches
		own     = 16 // seeds per cache stored by that cache alone
	)
	caches := []*Cache{open(t, dir), open(t, dir)}
	var wg sync.WaitGroup
	for ci, c := range caches {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := int64(w); s < shared+own; s += workers {
					seed := s
					if s >= shared {
						seed = int64(1000*(ci+1)) + s
					}
					if err := c.PutBytes(runKey(seed), runPayload(seed)); err != nil {
						t.Errorf("Put(seed %d): %v", seed, err)
						return
					}
					if _, _, err := get(c, runKey(s)); err != nil {
						t.Errorf("Get(seed %d): %v", s, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, c := range caches {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	c := open(t, dir)
	for ci := range caches {
		for s := int64(0); s < shared+own; s++ {
			seed := s
			if s >= shared {
				seed = int64(1000*(ci+1)) + s
			}
			if !checkGet(t, c, seed) {
				t.Errorf("seed %d missed after both writers closed", seed)
			}
		}
	}
	if st := c.Stats(); st.Corrupt != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want only hits", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-3")); !os.IsNotExist(err) {
		t.Fatalf("two writers left more than two segments: stat seg-3 = %v", err)
	}
}

// TestIncompleteFinalRecord: a segment cut inside its final record — a Put
// that never returned, so no table follows — keeps every earlier record and
// reads the cut one as a plain miss with nothing counted corrupt. The Open
// that finds it idle compacts it: the complete records move to a segment
// of its own, which the recomputed record joins.
func TestIncompleteFinalRecord(t *testing.T) {
	for name, cut := range map[string]func(seg []byte, last, end int) []byte{
		"payload": func(seg []byte, _, end int) []byte { return seg[:end-3] },
		"key":     func(seg []byte, last, _ int) []byte { return seg[:last+headerSize+5] },
		"header":  func(seg []byte, last, _ int) []byte { return seg[:last+headerSize-7] },
		"magic":   func(seg []byte, last, _ int) []byte { return seg[:last+2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			starts, end := writeSegment(t, dir, 1, 2, 3)
			damageSegment(t, dir, end, func(b []byte, end int) []byte { return cut(b, int(starts[2]), end) })

			c := open(t, dir)
			if !checkGet(t, c, 1) || !checkGet(t, c, 2) {
				t.Fatal("records before the cut were lost")
			}
			if checkGet(t, c, 3) {
				t.Fatal("incomplete final record served as a hit")
			}
			if st := c.Stats(); st.Corrupt != 0 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want 1 miss and 0 corrupt", st)
			}
			if err := c.PutBytes(runKey(3), runPayload(3)); err != nil {
				t.Fatal(err)
			}
			c.Close()
			if got := segmentNames(t, dir); got != "seg-2" {
				t.Fatalf("root holds %q, want the cut segment compacted into \"seg-2\"", got)
			}
			c = open(t, dir)
			for s := int64(1); s <= 3; s++ {
				if !checkGet(t, c, s) {
					t.Fatalf("seed %d missed after compaction", s)
				}
			}
			if st := c.Stats(); st.Corrupt != 0 {
				t.Fatalf("stats = %+v, want 0 corrupt", st)
			}
		})
	}
}

// TestOldLayoutIgnored: a root holding only entries of the earlier
// one-file-per-run layout (<xx>/<id>.json) opens cleanly; every lookup is a
// miss, nothing is counted corrupt, and the old files are left alone.
func TestOldLayoutIgnored(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "3f", strings.Repeat("3f", 32)+".json")
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"key":` + string(runKey(1).appendBytes(nil)) + `,"payloadSha256":"00","payload":{"note":"old"}}`)
	if err := os.WriteFile(old, body, 0o644); err != nil {
		t.Fatal(err)
	}
	c := open(t, dir)
	for s := int64(0); s < 4; s++ {
		if checkGet(t, c, s) {
			t.Fatalf("seed %d hit in an old-layout root", s)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses and 0 corrupt", st)
	}
	if err := c.PutBytes(runKey(1), runPayload(1)); err != nil {
		t.Fatal(err)
	}
	if !checkGet(t, c, 1) {
		t.Fatal("Put into an old-layout root did not read back")
	}
	if after, err := os.ReadFile(old); err != nil || string(after) != string(body) {
		t.Fatalf("old entry touched: %v", err)
	}
}

// FuzzSegment feeds arbitrary bytes to the reader as a segment. Open and
// Get must never panic, and a hit may only ever return the payload that was
// Put under that key. The seed corpus is real segments: the fuzzer mutates
// outward from the format writers produce. After the fuzzed segment, every
// key is stored again, and a fresh Open must serve all of them — damage
// costs one recomputation, never more.
func FuzzSegment(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for s := int64(0); s < 3; s++ {
		if err := c.PutBytes(runKey(s), runPayload(s)); err != nil {
			f.Fatal(err)
		}
	}
	c.Close()
	seg, err := os.ReadFile(filepath.Join(dir, "seg-1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add(append(append([]byte(nil), seg...), seg...))
	f.Add([]byte{})
	f.Add([]byte(magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-1"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := open(t, dir)
		for s := int64(0); s < 4; s++ {
			checkGet(t, c, s)
			if err := c.PutBytes(runKey(s), runPayload(s)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		c = open(t, dir)
		for s := int64(0); s < 4; s++ {
			if !checkGet(t, c, s) {
				t.Fatalf("seed %d missed after it was stored again", s)
			}
		}
	})
}
