package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// foldCases pairs stacks, innermost frame first, with the layer the fold
// rules give them.
var foldCases = []struct {
	stack []string
	layer string
}{
	// Rule 1: commissioning anywhere on the stack wins over the innermost
	// repository frame.
	{[]string{"crypto/ecdh.(*Curve).GenerateKey", "repro/internal/pki.NewCA", "repro/internal/worksite.CommissionSecurity", "repro/internal/scenario.NewBatch"}, "commission"},
	{[]string{"repro/internal/radio.NewMedium", "repro/internal/worksite.newSite", "repro/internal/worksite.New"}, "commission"},
	{[]string{"repro/internal/pki.(*CA).Issue", "repro/internal/worksite.newSite.func2"}, "commission"},
	// Rules 2 to 4: sub-layers of worksite and campaign, by the innermost
	// repository frame only.
	{[]string{"encoding/json.Marshal", "repro/internal/worksite.(*Site).send", "repro/internal/worksite.(*Site).tick"}, "worksite.wire"},
	{[]string{"repro/internal/worksite.(*wireParser).parseFloat", "repro/internal/worksite.fastParseWireMsg"}, "worksite.wire"},
	{[]string{"repro/internal/worksite.fastParseWireMsg", "repro/internal/worksite.(*Site).deliver"}, "worksite.wire"},
	{[]string{"repro/internal/worksite.(*Site).publishTick", "repro/internal/worksite.(*Site).tick"}, "worksite.events"},
	{[]string{"repro/internal/radio.(*Medium).Send", "repro/internal/worksite.(*Site).send"}, "radio"},
	{[]string{"os.(*File).Write", "repro/internal/campaign.(*checkpoint).record", "repro/internal/campaign.(*sweepEnv).runCell"}, "campaign.checkpoint"},
	{[]string{"repro/internal/campaign.openCheckpoint", "repro/internal/campaign.Sweep"}, "campaign.checkpoint"},
	{[]string{"repro/internal/campaign.(*sweepEnv).runCell"}, "campaign"},
	// Rule 5: the innermost repository frame's package.
	{[]string{"math.Sqrt", "repro/internal/geo.Vec.Dist", "repro/internal/worksite.(*Site).tick"}, "geo"},
	{[]string{"repro/internal/serve.(*Server).handleSubmitRun", "net/http.HandlerFunc.ServeHTTP"}, "serve"},
	{[]string{"repro/worksim/serve.New"}, "serve"},
	{[]string{"repro/internal/tracefmt.Marshal", "repro/internal/serve.(*Server).handleSubmitRun.func1"}, "tracefmt"},
	{[]string{"repro/worksim.Sweep"}, "other"},
	{[]string{"main.(*daemon).roundTrip", "net/http.(*Client).Do"}, "bench"},
	{[]string{"net/http.(*Client).Do", "main.(*daemon).roundTrip"}, "bench"},
	// Rule 6: stacks with no repository frame.
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
	{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "net/http.(*conn).readRequest"}, "gc"},
	{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
	{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, "http"},
	{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "unexplained"},
	{nil, "unexplained"},
}

func TestLayerOf(t *testing.T) {
	for _, c := range foldCases {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.layer)
		}
	}
}

// TestFoldProfile encodes a profile holding every fold case, with sample
// counts 1, 2, 3, ..., and checks that the fold decodes it, attributes each
// sample as layerOf does and gives shares summing to 1. Half the samples
// use packed repeated fields and half do not, as both are valid protobuf.
func TestFoldProfile(t *testing.T) {
	var p profileBuilder
	want := make(map[string]int64)
	var total int64
	for i, c := range foldCases {
		count := int64(i + 1)
		p.sample(c.stack, count, i%2 == 0)
		want[c.layer] += count
		total += count
	}
	// One location holding an inlined call: geo inlined into worksite. The
	// innermost line comes first, so the sample belongs to geo.
	p.inlinedSample([]string{"repro/internal/geo.Vec.Sub", "repro/internal/worksite.(*Site).tick"}, 5)
	want["geo"] += 5
	total += 5

	res, err := fold([][]byte{p.bytes(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.samples != total {
		t.Fatalf("fold saw %d samples, want %d", res.samples, total)
	}
	var sum float64
	for _, l := range namedLayers {
		sum += res.shares[l]
		if w := float64(want[l]) / float64(total); math.Abs(res.shares[l]-w) > 1e-12 {
			t.Errorf("%s share = %v, want %v", l, res.shares[l], w)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if res.residue["other repro/worksim"] == 0 || res.residue["unexplained runtime.futex"] == 0 {
		t.Errorf("residue misses the other and unexplained samples: %v", res.residue)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := fold([][]byte{[]byte("not a profile")}); err == nil {
		t.Fatal("fold accepted bytes that are not a gzipped profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // a sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := fold([][]byte{buf.Bytes()}); err == nil {
		t.Fatal("fold accepted a truncated profile")
	}
}

// profileBuilder writes a minimal pprof profile: string table, functions,
// locations and samples, in profile.proto's field numbers.
type profileBuilder struct {
	strs    []string
	strIdx  map[string]uint64
	funcs   map[string]uint64
	msgs    []byte // functions, locations and samples, already encoded
	nextLoc uint64
}

func (p *profileBuilder) str(s string) uint64 {
	if p.strIdx == nil {
		p.strIdx = map[string]uint64{"": 0}
		p.strs = []string{""}
	}
	if i, ok := p.strIdx[s]; ok {
		return i
	}
	p.strIdx[s] = uint64(len(p.strs))
	p.strs = append(p.strs, s)
	return p.strIdx[s]
}

func (p *profileBuilder) fn(name string) uint64 {
	if p.funcs == nil {
		p.funcs = make(map[string]uint64)
	}
	if id, ok := p.funcs[name]; ok {
		return id
	}
	id := uint64(len(p.funcs) + 1)
	p.funcs[name] = id
	var f []byte
	f = appendVarintField(f, 1, id)
	f = appendVarintField(f, 2, p.str(name))
	p.msgs = appendBytesField(p.msgs, 5, f)
	return id
}

// location adds a location whose lines call the given functions, innermost
// first, and returns its id.
func (p *profileBuilder) location(frames []string) uint64 {
	p.nextLoc++
	var loc []byte
	loc = appendVarintField(loc, 1, p.nextLoc)
	for _, f := range frames {
		loc = appendBytesField(loc, 4, appendVarintField(nil, 1, p.fn(f)))
	}
	p.msgs = appendBytesField(p.msgs, 4, loc)
	return p.nextLoc
}

func (p *profileBuilder) sample(stack []string, count int64, packed bool) {
	var locs []uint64
	for _, f := range stack {
		locs = append(locs, p.location([]string{f}))
	}
	p.addSample(locs, count, packed)
}

func (p *profileBuilder) inlinedSample(frames []string, count int64) {
	p.addSample([]uint64{p.location(frames)}, count, true)
}

func (p *profileBuilder) addSample(locs []uint64, count int64, packed bool) {
	values := []uint64{uint64(count), uint64(count) * 10_000_000}
	var s []byte
	for _, field := range []struct {
		num  int
		vals []uint64
	}{{1, locs}, {2, values}} {
		if packed {
			var run []byte
			for _, v := range field.vals {
				run = binary.AppendUvarint(run, v)
			}
			s = appendBytesField(s, field.num, run)
			continue
		}
		for _, v := range field.vals {
			s = appendVarintField(s, field.num, v)
		}
	}
	p.msgs = appendBytesField(p.msgs, 2, s)
}

func (p *profileBuilder) bytes(t *testing.T) []byte {
	t.Helper()
	p.str("")
	msg := append([]byte(nil), p.msgs...)
	for _, s := range p.strs {
		msg = appendBytesField(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func appendVarintField(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func appendBytesField(b []byte, num int, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}
