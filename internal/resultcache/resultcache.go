// Package resultcache is a content-addressed, file-backed cache for
// completed simulation runs: the layer that makes repeated campaigns cheap.
// A cache entry is keyed on everything that shapes a run's outcome — the
// canonical scenario-spec hash (profile included), the profile name for
// auditability, the seed, the simulated duration, the sampling interval, the
// named early-stop predicate and the engine version — so two runs share an
// entry exactly when the engine guarantees them byte-identical results.
//
// Payloads are opaque bytes: PutBytes stores what the caller encoded, and
// GetBytes hands a verified payload to the caller's decoder. A payload the
// decoder rejects is counted corrupt, like a failed checksum, unless the
// decoder reports ErrOtherFormat: a record written in a payload format it
// does not read (an older one, say) is a plain miss, and the record the
// caller then stores shadows it. Put and Get wrap the two with an
// encoding/json payload.
//
// Layout: the root holds append-only segment files named seg-<n>. Every
// Cache that stores anything claims its own segment, the next free sequence
// number created with O_EXCL, and holds an advisory lock on it until Close,
// so no two writers — goroutines of another Cache, other sweeps, other
// processes — ever share a segment. A segment is a run of records, each
// written with one append:
//
//	magic "wsr1" | key length u32 | payload length u32 | SHA-256 [32]byte | CRC-32C u32
//	key bytes (the Key's canonical JSON) | payload bytes
//
// where the integers are little-endian, the SHA-256 covers the key bytes
// followed by the payload bytes, and the CRC-32C covers the 44 header bytes
// before it. Close ends the segment with its table, the index of its
// records:
//
//	header as above, with magic "wsi1", record count n, table length 24n and a zero SHA-256
//	n entries of hash u64 | record offset u64 | key length u32 | payload length u32, sorted by hash
//	summary: the hash of every 64th entry, u64 each
//	magic "wsi1" | n u32 | CRC-32C of the summary u32 | CRC-32C of the 12 bytes before it u32
//
// where hash is the 64-bit FNV-1a hash of the key bytes.
//
// Open reads each segment's summary — two reads of about one byte per
// eight records — and indexes only the segments that have no table, the
// ones a live writer is still appending to or a killed one left behind, by
// reading their record headers and keys, never a payload it can skip. A
// later record for a key shadows an earlier one, and Put indexes its own
// records as it appends them. A Get is a map lookup, one read of 64 table
// entries per table that may hold the key, one ReadAt of the record, the
// header, key and checksum checks, and the caller's decode of the payload.
//
// Compaction bounds the segment count. When Open finds compactAt or more
// non-empty segments that no live Cache holds locked, or one such segment
// without a table or with a damaged header, it copies the newest verified
// record of each key among them into a segment of its own and deletes
// them. Caches
// that already have a deleted segment open keep reading it; one that opens
// later reads the copy. Each compaction rewrites every idle segment, so a
// root written by k sweeps is copied about k/compactAt times.
//
// Damage rules: a complete record that fails its header CRC or checksum is
// counted corrupt and reads as a miss; the caller
// recomputes, and the fresh record (in a later segment) shadows the damaged
// one for every later Open, so the damage costs exactly one recomputation.
// In a segment without a table, the scan cannot step past a damaged header
// — a damaged magic or length included — so it counts one corrupt at Open
// and loses the rest of that segment: its records read as misses and are
// recomputed. A table whose summary or tail fails its CRC is ignored and
// its segment scanned instead.
// The next compaction drops damaged records and damaged segments, so each
// is counted by one Open, unless a live writer still holds the segment. A
// final record whose length runs past the end of its segment is a Put that
// never returned — a live writer in another process, or one killed
// mid-append — and is a plain miss. Eviction is deleting a segment, or the
// whole root; what it held reads as a miss from the next Open on. Files
// other than segments — the old <xx>/<id>.json entries, shard-*-of-*.jsonl
// journals — are never read.
//
// The same store is what resumes a killed sweep: campaign.Sweep stores
// every fresh run before reporting it done, so a re-run looks up what the
// killed one stored. Because records are addressed by the full key and
// writers never share a segment, sharded processes may share one
// directory, and runs of a differently-shaped campaign simply miss.
//
// A Cache sees the records stored before its Open and those it stores
// itself, not those another Cache stores later: two sweeps running side by
// side on one root each compute the runs neither had when it started.
//
// The cache deliberately stores no wall-clock metadata and names segments
// by sequence number alone: records are pure functions of their key, so the
// package stays inside the repo's determinism perimeter.
package resultcache

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jsonenc"
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

// appendBytes appends the key's canonical bytes, json.Marshal(k), to dst:
// the record's address in the index and the key part of its on-disk
// record. Changing any key field changes the bytes. They are built with
// jsonenc appends; a string those do not cover falls back to json.Marshal.
func (k Key) appendBytes(dst []byte) []byte {
	b, ok := append(dst, `{"specHash":`...), true
	b, ok = jsonenc.AppendText(b, k.SpecHash, ok)
	b = append(b, `,"profile":`...)
	b, ok = jsonenc.AppendText(b, k.Profile, ok)
	b = strconv.AppendInt(append(b, `,"seed":`...), k.Seed, 10)
	b = strconv.AppendInt(append(b, `,"durationNs":`...), k.DurationNs, 10)
	b = strconv.AppendInt(append(b, `,"sampleNs":`...), k.SampleNs, 10)
	b = append(b, `,"earlyStop":`...)
	b, ok = jsonenc.AppendText(b, k.EarlyStop, ok)
	b = append(b, `,"engine":`...)
	b, ok = jsonenc.AppendText(b, k.Engine, ok)
	if ok {
		return append(b, '}')
	}
	m, err := json.Marshal(k)
	if err != nil {
		// A struct of strings and ints cannot fail to marshal.
		panic("resultcache: marshal key: " + err.Error())
	}
	return append(dst, m...)
}

// keyBufLen is the stack room GetBytes and PutBytes give the key's bytes;
// canonical keys of a sweep are about 190 bytes.
const keyBufLen = 256

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Gets served from a verified record.
	Hits int64 `json:"hits"`
	// Misses counts Gets that found no complete record.
	Misses int64 `json:"misses"`
	// Corrupt counts damaged records: headers that stopped a scan at Open,
	// records a compaction at Open dropped, and records a Get rejected.
	Corrupt int64 `json:"corrupt"`
	// Stored counts successful Puts.
	Stored int64 `json:"stored"`
}

// Segment framing and compaction: see the package doc.
const (
	magic      = "wsr1"
	tableMagic = "wsi1"
	headerSize = 4 + 4 + 4 + sha256.Size + 4 // magic, key length, payload length, SHA-256, CRC-32C
	entrySize  = 8 + 8 + 4 + 4               // hash, record offset, key length, payload length
	tailSize   = 4 + 4 + 4 + 4               // magic, record count, CRC-32C of the summary, CRC-32C
	// blockLen is the number of table entries one summary hash covers.
	blockLen = 64
	// maxKeyLen bounds a header's key length; canonical keys are a few
	// hundred bytes.
	maxKeyLen = 1 << 16
	segPrefix = "seg-"
	// compactAt is the number of idle segments that makes Open compact.
	compactAt = 8
	// scanWindow is how much of a segment one read of a scan covers.
	scanWindow = 64 << 10
)

// castagnoli is built on first use, so a program that links the package
// but opens no cache does not hold its tables.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// crc is the CRC-32C of b.
func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli()) }

// putHeader frames a record, or with tableMagic a table, into hdr.
func putHeader(hdr []byte, mag string, klen, plen int, sum [sha256.Size]byte) {
	copy(hdr, mag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(klen))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(plen))
	copy(hdr[12:], sum[:])
	binary.LittleEndian.PutUint32(hdr[headerSize-4:], crc(hdr[:headerSize-4]))
}

// parseHeader reports whether a record or table header is a table's, and
// returns its two lengths, or false when the header is damaged.
func parseHeader(hdr []byte) (isTable bool, klen, plen uint32, ok bool) {
	isTable = string(hdr[:len(tableMagic)]) == tableMagic
	if !isTable && string(hdr[:len(magic)]) != magic ||
		crc(hdr[:headerSize-4]) != binary.LittleEndian.Uint32(hdr[headerSize-4:]) {
		return false, 0, 0, false
	}
	return isTable, binary.LittleEndian.Uint32(hdr[4:]), binary.LittleEndian.Uint32(hdr[8:]), true
}

// keyHash is the 64-bit FNV-1a hash of canonical key bytes, the order of a
// table's entries.
func keyHash(kb []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range kb {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// segment is one open segment file. Its handle serves every ReadAt of the
// records in it; for the Cache's own segment it is also the append handle
// and holds the segment's lock.
type segment struct {
	seq  uint64
	name string
	f    *os.File
}

// loc places one record: its segment, the offset of its header, and its key
// and payload lengths. A loc with gone set marks a record a Get found
// damaged: it reads as a miss until a later record shadows it.
type loc struct {
	seg        *segment
	off        int64
	klen, plen uint32
	gone       bool
}

// size is the record's length on disk.
func (l loc) size() int64 { return headerSize + int64(l.klen) + int64(l.plen) }

// table is a segment's index as its writer's Close left it: n entries
// sorted by key hash at entriesOff, and in memory only the summary, the
// hash of every blockLen-th entry.
type table struct {
	seg        *segment
	n          int
	entriesOff int64
	summary    []byte
}

// decodeEntry decodes one table entry of seg.
func decodeEntry(e []byte, seg *segment) (uint64, loc) {
	return binary.LittleEndian.Uint64(e), loc{seg: seg, off: int64(binary.LittleEndian.Uint64(e[8:])),
		klen: binary.LittleEndian.Uint32(e[16:]), plen: binary.LittleEndian.Uint32(e[20:])}
}

// find returns the record whose key hashes to h, reading the one block of
// entries the summary places it in. Two keys of one segment sharing a hash
// is a 2^-64 event: one of them reads as a miss.
func (t table) find(h uint64) (loc, bool, error) {
	nb := len(t.summary) / 8
	j := sort.Search(nb, func(j int) bool { return binary.LittleEndian.Uint64(t.summary[j*8:]) > h }) - 1
	if j < 0 {
		return loc{}, false, nil
	}
	var block [blockLen * entrySize]byte
	b := block[:min(blockLen, t.n-j*blockLen)*entrySize]
	if _, err := t.seg.f.ReadAt(b, t.entriesOff+int64(j*blockLen*entrySize)); err != nil {
		return loc{}, false, fmt.Errorf("resultcache: read %s: %w", t.seg.name, err)
	}
	i := sort.Search(len(b)/entrySize, func(i int) bool { return binary.LittleEndian.Uint64(b[i*entrySize:]) >= h })
	if i == len(b)/entrySize {
		return loc{}, false, nil
	}
	eh, l := decodeEntry(b[i*entrySize:], t.seg)
	return l, eh == h, nil
}

// Cache is a segment-backed result cache rooted at one directory. All
// methods are safe for concurrent use by any number of goroutines, and any
// number of Caches in any number of processes may share a root. A Cache
// holds its segments open until Close.
type Cache struct {
	root string

	mu     sync.RWMutex   // guards index and segs
	index  map[string]loc // records of segments without a table
	tables []table        // in segment order; fixed once Open returns
	segs   []*segment

	wmu    sync.Mutex // serializes appends; guards own, end, seq, closed
	own    *segment   // this Cache's segment, claimed on first Put
	end    int64      // size of own
	seq    uint64     // lowest sequence number own may claim
	closed bool

	hits, misses, corrupt, stored atomic.Int64
}

// Open returns a cache rooted at dir, creating the directory if needed,
// reads the table of every segment already there or indexes the segment
// itself, and compacts the idle segments when there are compactAt of them
// or one has no table or a damaged header.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("resultcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	c := &Cache{root: dir, index: make(map[string]loc), seq: 1}
	var idle []*segment // non-empty segments no live Cache holds
	compact := false
	loaded := make(map[uint64]bool)
	// A segment that vanishes between listing and opening was evicted, or
	// compacted by another Open, which finishes its copy before deleting
	// anything: list again until every listed segment opens.
	for vanished := true; vanished; {
		vanished = false
		segs, err := listSegments(dir, loaded)
		if err != nil {
			c.Close()
			return nil, err
		}
		for _, seg := range segs {
			loaded[seg.seq] = true
			c.seq = max(c.seq, seg.seq+1)
			f, err := os.Open(filepath.Join(dir, seg.name))
			if errors.Is(err, fs.ErrNotExist) {
				vanished = true
				continue
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("resultcache: %w", err)
			}
			seg.f = f
			c.segs = append(c.segs, seg)
			size, tabled, bad, err := c.load(seg)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("resultcache: read %s: %w", seg.name, err)
			}
			if size > 0 && tryLock(f) {
				idle = append(idle, seg)
				compact = compact || !tabled || bad
			}
		}
	}
	slices.SortFunc(c.tables, func(a, b table) int { return cmp.Compare(a.seg.seq, b.seg.seq) })
	if !(compact || len(idle) >= compactAt) || !c.compact(idle) {
		for _, seg := range idle {
			unlock(seg.f)
		}
	}
	return c, nil
}

// listSegments lists the segments of dir not in skip, in sequence order.
func listSegments(dir string, skip map[uint64]bool) ([]*segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	var segs []*segment
	for _, e := range ents {
		if n, ok := segSeq(e.Name()); ok && e.Type().IsRegular() && !skip[n] {
			segs = append(segs, &segment{seq: n, name: e.Name()})
		}
	}
	slices.SortFunc(segs, func(a, b *segment) int { return cmp.Compare(a.seq, b.seq) })
	return segs, nil
}

// segSeq parses a segment file name, seg-<n> with n in canonical decimal.
func segSeq(name string) (uint64, bool) {
	digits, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || strconv.FormatUint(n, 10) != digits {
		return 0, false
	}
	return n, true
}

// load indexes seg: it reads the segment's table if it has an intact one,
// and scans its records otherwise. size is the segment's length when load
// began; bad reports a damaged header that stopped the scan.
func (c *Cache) load(seg *segment) (size int64, tabled, bad bool, err error) {
	fi, err := seg.f.Stat()
	if err != nil {
		return 0, false, false, err
	}
	size = fi.Size()
	if t, ok := readTable(seg, size); ok {
		c.tables = append(c.tables, t)
		return size, true, false, nil
	}
	bad, err = c.scan(seg, size)
	return size, false, bad, err
}

// readTable reads the summary of the table at the end of seg, if it has an
// intact one. The entries stay on disk: a damaged entry at worst sends a
// Get to a record that fails its checks, or misses.
func readTable(seg *segment, size int64) (table, bool) {
	var tail [tailSize]byte
	if size < headerSize+tailSize {
		return table{}, false
	}
	if _, err := seg.f.ReadAt(tail[:], size-tailSize); err != nil || string(tail[:4]) != tableMagic ||
		crc(tail[:12]) != binary.LittleEndian.Uint32(tail[12:]) {
		return table{}, false
	}
	n := int64(binary.LittleEndian.Uint32(tail[4:]))
	nb := (n + blockLen - 1) / blockLen
	summaryOff := size - tailSize - nb*8
	entriesOff := summaryOff - n*entrySize
	if entriesOff-headerSize < 0 {
		return table{}, false
	}
	summary := make([]byte, nb*8)
	if _, err := seg.f.ReadAt(summary, summaryOff); err != nil ||
		crc(summary) != binary.LittleEndian.Uint32(tail[8:]) {
		return table{}, false
	}
	return table{seg: seg, n: int(n), entriesOff: entriesOff, summary: summary}, true
}

// scan indexes every complete record of seg, reading headers and keys
// through a window of the file and skipping every payload the window does
// not already cover. It stops at the end of the records, at an incomplete
// final record, or at a damaged header, which counts one corrupt and
// reports bad.
func (c *Cache) scan(seg *segment, size int64) (bad bool, err error) {
	win := make([]byte, scanWindow)
	var buf []byte // the bytes of seg at [bufOff, bufOff+len(buf))
	var bufOff int64
	// ahead is how much a refill reads: the whole window while records are
	// small, and just a header and key once they are large.
	ahead := len(win)
	// at returns the n bytes at off, all of which lie before size.
	at := func(off int64, n int) ([]byte, error) {
		if off < bufOff || off+int64(n) > bufOff+int64(len(buf)) {
			if n > len(win) {
				win = make([]byte, n)
			}
			m := int(min(int64(max(n, min(ahead, len(win)))), size-off))
			if _, err := seg.f.ReadAt(win[:m], off); err != nil {
				if err == io.EOF {
					err = errors.New("segment truncated while it was read")
				}
				return nil, err
			}
			buf, bufOff = win[:m], off
		}
		return buf[off-bufOff:][:n], nil
	}
	for off := int64(0); off < size; {
		if size-off < headerSize {
			// An incomplete final header is a Put or a table still being
			// written, or cut short; anything else is damage.
			tail, err := at(off, int(size-off))
			if err != nil {
				return false, err
			}
			tail = tail[:min(len(tail), len(magic))]
			if !bytes.HasPrefix([]byte(magic), tail) && !bytes.HasPrefix([]byte(tableMagic), tail) {
				c.corrupt.Add(1)
				return true, nil
			}
			return false, nil
		}
		hdr, err := at(off, headerSize)
		if err != nil {
			return false, err
		}
		isTable, klen, plen, ok := parseHeader(hdr)
		if !ok || !isTable && (klen == 0 || klen > maxKeyLen) {
			c.corrupt.Add(1)
			return true, nil
		}
		if isTable {
			return false, nil // the records end where a table begins
		}
		l := loc{seg: seg, off: off, klen: klen, plen: plen}
		if off+l.size() > size {
			return false, nil // incomplete final record
		}
		key, err := at(off+headerSize, int(klen))
		if err != nil {
			return false, err
		}
		// A later listing can load an older segment; it never shadows.
		if cur, ok := c.index[string(key)]; !ok || cur.seg.seq <= seg.seq {
			c.index[string(key)] = l
		}
		off += l.size()
		ahead = len(win)
		if l.size() > scanWindow/4 {
			ahead = headerSize + int(klen)
		}
	}
	return false, nil
}

// find returns the newest record of the key kb: the index entry, or a
// table entry in a later segment. An index entry in a segment with a table
// is a record a Get found gone, so it wins over that table. Tables are
// fixed once Open returns, so only the index needs mu.
func (c *Cache) find(kb []byte) (loc, bool, error) {
	c.mu.RLock()
	l, ok := c.index[string(kb)]
	c.mu.RUnlock()
	if len(c.tables) == 0 {
		return l, ok, nil
	}
	h := keyHash(kb)
	for i := len(c.tables) - 1; i >= 0; i-- {
		t := c.tables[i]
		if ok && t.seg.seq <= l.seg.seq {
			break
		}
		tl, found, err := t.find(h)
		if err != nil || found {
			return tl, found, err
		}
	}
	return l, ok, nil
}

// intact reports whether b, the bytes at l, is an undamaged record: a
// well-formed header with l's lengths and a matching checksum.
func intact(b []byte, l loc) bool {
	isTable, klen, plen, ok := parseHeader(b)
	return ok && !isTable && klen == l.klen && plen == l.plen &&
		sha256.Sum256(b[headerSize:]) == [sha256.Size]byte(b[12:])
}

// compact copies the newest verified record of every key in idle into the
// Cache's own segment, in segment and offset order, then deletes idle.
// Records are pure functions of their key, so which of two undamaged
// copies survives does not matter. It is best-effort: it reports false,
// leaving the idle segments as they are, on any failure. Every segment in
// idle is locked by this Cache. Called from Open only, before the Cache is
// shared.
func (c *Cache) compact(idle []*segment) bool {
	isIdle := make(map[*segment]bool, len(idle))
	for _, seg := range idle {
		isIdle[seg] = true
	}
	type rec struct {
		h uint64
		l loc
	}
	var recs []rec
	for k, l := range c.index {
		if isIdle[l.seg] {
			recs = append(recs, rec{keyHash([]byte(k)), l})
		}
	}
	for _, t := range c.tables {
		if !isIdle[t.seg] {
			continue
		}
		entries := make([]byte, t.n*entrySize)
		if _, err := t.seg.f.ReadAt(entries, t.entriesOff); err != nil {
			return false
		}
		for e := entries; len(e) > 0; e = e[entrySize:] {
			h, l := decodeEntry(e, t.seg)
			recs = append(recs, rec{h, l})
		}
	}
	// Keep the newest record of each key hash, then copy in disk order.
	slices.SortFunc(recs, func(a, b rec) int {
		return cmp.Or(cmp.Compare(b.l.seg.seq, a.l.seg.seq), cmp.Compare(b.l.off, a.l.off))
	})
	seen := make(map[uint64]bool, len(recs))
	recs = slices.DeleteFunc(recs, func(r rec) bool {
		dup := seen[r.h]
		seen[r.h] = true
		return dup
	})
	slices.Reverse(recs)
	moved := make(map[string]loc, len(recs))
	dropped := 0
	if len(recs) > 0 {
		if err := c.claim(); err != nil {
			return false
		}
		w := bufio.NewWriterSize(c.own.f, scanWindow)
		end := c.end
		for _, r := range recs {
			b := make([]byte, r.l.size())
			if _, err := r.l.seg.f.ReadAt(b, r.l.off); err != nil || !intact(b, r.l) {
				dropped++
				continue
			}
			if _, err := w.Write(b); err != nil {
				break
			}
			moved[string(b[headerSize:][:r.l.klen])] = loc{seg: c.own, off: end, klen: r.l.klen, plen: r.l.plen}
			end += r.l.size()
		}
		if err := w.Flush(); err != nil {
			// The copy is incomplete: keep reading the originals and append
			// nothing more to the copy.
			c.own = nil
			return false
		}
		c.end = end
	}
	c.corrupt.Add(int64(dropped))
	for k, l := range c.index {
		if isIdle[l.seg] {
			delete(c.index, k)
		}
	}
	for k, l := range moved {
		c.index[k] = l
	}
	c.tables = slices.DeleteFunc(c.tables, func(t table) bool { return isIdle[t.seg] })
	c.segs = slices.DeleteFunc(c.segs, func(seg *segment) bool { return isIdle[seg] })
	for _, seg := range idle {
		// A segment that cannot be removed costs only space: the copy, in a
		// later segment, shadows its records.
		_ = os.Remove(filepath.Join(c.root, seg.name))
		seg.f.Close()
	}
	return true
}

// Root returns the cache's root directory.
func (c *Cache) Root() string { return c.root }

// ErrOtherFormat is what a GetBytes decoder returns for a payload written in
// a format it does not read: the Get is a miss, and nothing is counted
// corrupt.
var ErrOtherFormat = errors.New("resultcache: payload in another format")

// readBufs recycles the record buffers of GetBytes.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// GetBytes looks k up and, on a verified hit, hands the stored payload to
// decode and returns true. The payload is valid only during the call:
// decode must copy what it keeps. A key with no complete record is a miss
// (false, nil), and so is a record whose payload decode rejects with
// ErrOtherFormat. A damaged record — header or checksum mismatch, or a
// payload decode rejects with any other error — is counted corrupt. Either
// way the record is marked gone and reported as a miss: callers always
// recompute rather than trust it, and the record they store next shadows
// it. A non-nil error is an I/O failure, not a miss.
func (c *Cache) GetBytes(k Key, decode func(payload []byte) error) (bool, error) {
	var kbuf [keyBufLen]byte
	kb := k.appendBytes(kbuf[:0])
	l, ok, err := c.find(kb)
	if err != nil {
		return false, err
	}
	if !ok || l.gone || int(l.klen) != len(kb) {
		c.misses.Add(1)
		return false, nil
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	b := slices.Grow((*bp)[:0], int(l.size()))[:l.size()]
	*bp = b
	if _, err := l.seg.f.ReadAt(b, l.off); err != nil {
		if err != io.EOF {
			return false, fmt.Errorf("resultcache: read %s: %w", l.seg.name, err)
		}
		// The segment shrank since it was indexed: its records are gone.
		c.drop(kb, l)
		c.misses.Add(1)
		return false, nil
	}
	if !intact(b, l) {
		c.drop(kb, l)
		c.corrupt.Add(1)
		return false, nil
	}
	if !bytes.Equal(b[headerSize:][:l.klen], kb) {
		// An intact record of another key with the same hash.
		c.misses.Add(1)
		return false, nil
	}
	if err := decode(b[headerSize+l.klen:]); err != nil {
		c.drop(kb, l)
		if errors.Is(err, ErrOtherFormat) {
			c.misses.Add(1)
		} else {
			c.corrupt.Add(1)
		}
		return false, nil
	}
	c.hits.Add(1)
	return true, nil
}

// Get is GetBytes with a decoder that unmarshals the payload, as JSON, into
// into.
func (c *Cache) Get(k Key, into any) (bool, error) {
	return c.GetBytes(k, func(payload []byte) error { return json.Unmarshal(payload, into) })
}

// drop marks a record that failed to read gone, unless a Put has already
// shadowed it.
func (c *Cache) drop(kb []byte, l loc) {
	c.mu.Lock()
	if cur, ok := c.index[string(kb)]; !ok || cur == l || cur.seg.seq < l.seg.seq {
		l.gone = true
		c.index[string(kb)] = l
	}
	c.mu.Unlock()
}

// Put is PutBytes of payload's JSON encoding.
func (c *Cache) Put(k Key, payload any) error {
	pb, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("resultcache: marshal payload: %w", err)
	}
	return c.PutBytes(k, pb)
}

// PutBytes stores payload under k with one append to the Cache's own
// segment, claimed on the first Put, and indexes the record so later Gets
// on this Cache see it. A Put that fails leaves at most an incomplete final
// record, which every reader treats as a miss; the next Put claims a fresh
// segment.
func (c *Cache) PutBytes(k Key, payload []byte) error {
	var kbuf [keyBufLen]byte
	kb := k.appendBytes(kbuf[:0])
	if len(kb) > maxKeyLen || int64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("resultcache: record too large for its header (key %d B, payload %d B)", len(kb), len(payload))
	}
	rec := make([]byte, headerSize, headerSize+len(kb)+len(payload))
	rec = append(append(rec, kb...), payload...)
	putHeader(rec, magic, len(kb), len(payload), sha256.Sum256(rec[headerSize:]))

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.claim(); err != nil {
		return err
	}
	if _, err := c.own.f.Write(rec); err != nil {
		// Whatever reached the file is an incomplete final record; no
		// record may follow it, so the next Put starts a new segment.
		name := c.own.name
		c.own = nil
		return fmt.Errorf("resultcache: append %s: %w", name, err)
	}
	l := loc{seg: c.own, off: c.end, klen: uint32(len(kb)), plen: uint32(len(payload))}
	c.end += int64(len(rec))
	c.mu.Lock()
	c.index[string(kb)] = l
	c.mu.Unlock()
	c.stored.Add(1)
	return nil
}

// claim creates and locks the Cache's own segment if it has none, at the
// lowest sequence number above every segment Open saw that no other writer
// has taken since. Called with wmu held, or from Open.
func (c *Cache) claim() error {
	if c.closed {
		return errors.New("resultcache: put on closed cache")
	}
	if c.own != nil {
		return nil
	}
	for ; ; c.seq++ {
		name := segPrefix + strconv.FormatUint(c.seq, 10)
		f, err := os.OpenFile(filepath.Join(c.root, name), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("resultcache: %w", err)
		}
		// The lock is taken before the first append, so a compacting Open
		// that finds the segment non-empty also finds it locked.
		if err := lock(f); err != nil {
			f.Close()
			return fmt.Errorf("resultcache: lock %s: %w", name, err)
		}
		seg := &segment{seq: c.seq, name: name, f: f}
		c.seq++
		c.own, c.end = seg, 0
		c.mu.Lock()
		c.segs = append(c.segs, seg)
		c.mu.Unlock()
		return nil
	}
}

// Close appends the table of the Cache's own segment, if it has one, and
// releases every segment handle and the segment's lock. Gets and Puts
// after Close fail.
func (c *Cache) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	if c.own != nil {
		first = c.writeTable()
	}
	for _, s := range c.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeTable appends the table of the own segment's unshadowed records.
// Called with wmu and mu held.
func (c *Cache) writeTable() error {
	type entry struct {
		h uint64
		l loc
	}
	var es []entry
	for k, l := range c.index {
		if l.seg == c.own && !l.gone {
			es = append(es, entry{keyHash([]byte(k)), l})
		}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.l.off, b.l.off)) })
	b := make([]byte, headerSize, headerSize+len(es)*(entrySize+1)+tailSize)
	putHeader(b, tableMagic, len(es), len(es)*entrySize, [sha256.Size]byte{})
	var summary []byte
	for i, e := range es {
		if i%blockLen == 0 {
			summary = binary.LittleEndian.AppendUint64(summary, e.h)
		}
		b = binary.LittleEndian.AppendUint64(b, e.h)
		b = binary.LittleEndian.AppendUint64(b, uint64(e.l.off))
		b = binary.LittleEndian.AppendUint32(b, e.l.klen)
		b = binary.LittleEndian.AppendUint32(b, e.l.plen)
	}
	b = append(append(b, summary...), tableMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(es)))
	b = binary.LittleEndian.AppendUint32(b, crc(summary))
	b = binary.LittleEndian.AppendUint32(b, crc(b[len(b)-12:]))
	if _, err := c.own.f.Write(b); err != nil {
		return fmt.Errorf("resultcache: append table to %s: %w", c.own.name, err)
	}
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
