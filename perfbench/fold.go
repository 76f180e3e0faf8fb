package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"regexp"
	"strings"
)

// The CPU-profile fold attributes every sample of a runtime/pprof profile to
// exactly one layer, so the layer shares of a workload add up to 1. The
// rules apply in order to the sample's stack:
//
//  1. Any frame is worksite.CommissionSecurity or worksite.newSite:
//     commission (key generation, issuance, handshakes, site construction).
//  2. The innermost repository frame is the wire codec
//     (fastParseWireMsg, (*wireParser).*, (*Site).send): worksite.wire.
//  3. The innermost repository frame is (*Site).publish*: worksite.events.
//  4. The innermost repository frame is the checkpoint journal
//     ((*checkpoint).*, openCheckpoint): campaign.checkpoint.
//  5. Otherwise the innermost repository frame's package names the layer.
//     Frames of this benchmark (package main) are the load generator, bench.
//     Repository packages outside the named layers go to other.
//  6. A stack with no repository frame goes to gc (GC workers, sweeping,
//     scavenging or mallocgc), http (net/http and the net poller) or
//     unexplained.

// namedLayers are the layers the fold reports, in report order. Each one is
// the per-layer metric "<layer>.cpu_share".
var namedLayers = []string{
	"campaign", "campaign.checkpoint", "commission", "pki", "scenario",
	"worksite", "worksite.wire", "worksite.events",
	"geo", "radio", "netsim", "sensors", "fusion", "machine", "simclock", "rng",
	"securechan", "ids", "risk", "attack",
	"resultcache", "serve", "tracefmt", "http", "gc",
	"bench", "other", "unexplained",
}

const worksitePkg = `repro/internal/worksite\.`

var (
	commissionRE = regexp.MustCompile(`^` + worksitePkg + `(CommissionSecurity|newSite)(\..*)?$`)
	wireRE       = regexp.MustCompile(`^` + worksitePkg + `(fastParseWireMsg|\(\*wireParser\)\..*|\(\*Site\)\.send)(\..*)?$`)
	eventsRE     = regexp.MustCompile(`^` + worksitePkg + `\(\*Site\)\.publish.*$`)
	checkpointRE = regexp.MustCompile(`^repro/internal/campaign\.(\(\*checkpoint\)\..*|openCheckpoint(\..*)?)$`)
)

// gcFrames mark a stack with no repository frame as garbage-collector work.
var gcFrames = []string{"runtime.gc", "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge"}

// httpFrames mark a stack with no repository frame as HTTP transport work.
var httpFrames = []string{"net/http.", "net.", "internal/poll."}

// layerOf applies the fold rules to one stack, innermost frame first.
func layerOf(stack []string) string {
	for _, f := range stack {
		if commissionRE.MatchString(f) {
			return "commission"
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "main."):
			return "bench"
		case !strings.HasPrefix(f, "repro/"):
			continue
		case wireRE.MatchString(f):
			return "worksite.wire"
		case eventsRE.MatchString(f):
			return "worksite.events"
		case checkpointRE.MatchString(f):
			return "campaign.checkpoint"
		}
		layer := path.Base(funcPackage(f))
		for _, l := range namedLayers {
			if l == layer {
				return layer
			}
		}
		return "other"
	}
	if anyPrefix(stack, gcFrames) {
		return "gc"
	}
	if anyPrefix(stack, httpFrames) {
		return "http"
	}
	return "unexplained"
}

func anyPrefix(stack, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/worksite.(*Site).send".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldResult is the layer split of a set of CPU profiles.
type foldResult struct {
	// shares holds every named layer's share of all samples; with no
	// samples every share is 0.
	shares  map[string]float64
	samples int64
	// residue counts, for samples that fell to other or unexplained, the
	// package or the innermost function that put them there, so the layer
	// table can show what those buckets hold.
	residue map[string]int64
}

// fold attributes the samples of the given profiles to layers.
func fold(profiles [][]byte) (foldResult, error) {
	counts := make(map[string]int64)
	res := foldResult{shares: make(map[string]float64, len(namedLayers)), residue: make(map[string]int64)}
	for _, p := range profiles {
		samples, err := parseProfile(p)
		if err != nil {
			return foldResult{}, err
		}
		for _, s := range samples {
			layer := layerOf(s.frames)
			counts[layer] += s.count
			res.samples += s.count
			if k := residueKey(layer, s.frames); k != "" {
				res.residue[k] += s.count
			}
		}
	}
	for _, l := range namedLayers {
		res.shares[l] = ratio(float64(counts[l]), float64(res.samples))
	}
	return res, nil
}

// residueKey names what put a sample of layer other or unexplained there:
// the repository package outside the named layers, or the innermost
// function of a stack with no repository frame.
func residueKey(layer string, stack []string) string {
	switch {
	case len(stack) == 0:
		return layer + " (empty stack)"
	case layer == "unexplained":
		return layer + " " + stack[0]
	case layer == "other":
		for _, f := range stack {
			if strings.HasPrefix(f, "repro/") {
				return layer + " " + funcPackage(f)
			}
		}
	}
	return ""
}

// stackSample is one profile sample: its stack as function names, innermost
// first (inlined callees before their callers), and its sample count.
type stackSample struct {
	frames []string
	count  int64
}

// parseProfile decodes the parts of a gzipped pprof protobuf profile
// (profile.proto) the fold needs: samples, locations, functions and the
// string table. Field numbers are those of profile.proto.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		strs     []string
		funcName = make(map[uint64]uint64)   // function id → string index
		locFuncs = make(map[uint64][]uint64) // location id → function ids
		samples  []rawSample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendRepeated(s.locs, v, b)
				case 2:
					values = appendRepeated(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) == 0 {
				return errors.New("profile: sample without values")
			}
			s.count = int64(values[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fn)
				}
				frames = append(frames, strs[idx])
			}
		}
		out = append(out, stackSample{frames: frames, count: s.count})
	}
	return out, nil
}

// appendRepeated appends a repeated integer field that arrived either as
// one varint or as a packed run.
func appendRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: with the value
// of a varint or fixed-width field, or the bytes of a length-delimited one
// (nil for the other wire types).
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(buf) < w {
				return errors.New("profile: truncated fixed field")
			}
			buf = buf[w:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
