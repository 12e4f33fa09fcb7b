package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// This file reads a runtime/pprof CPU profile back into per-layer CPU
// shares. The profile is a gzipped protobuf (profile.proto); decoding
// the four message types the attribution needs takes less code than
// shelling out to `go tool pprof` and parsing its text, and keeps the
// harness free of module dependencies and of a second process.

// pbField is one decoded protobuf field: varint fields carry num,
// length-delimited fields carry data.
type pbField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return nil, fmt.Errorf("profile: truncated field key")
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return nil, fmt.Errorf("profile: truncated varint")
			}
			f.num, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: truncated bytes field")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: truncated fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbRepeated returns a repeated integer field's values, packed or not.
func pbRepeated(f pbField, dst []uint64) []uint64 {
	if f.wire == 0 {
		return append(dst, f.num)
	}
	for b := f.data; len(b) > 0; {
		v, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// stackSample is one profile sample: its call stack as function names,
// leaf first (inlined frames expanded), and its CPU weight.
type stackSample struct {
	stack  []string
	weight int64
}

// decodeProfile parses a gzipped pprof profile into samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string-table index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.tag {
		case 2: // Sample: location_id = 1, value = 2
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					s.locs = pbRepeated(sf, s.locs)
				case 2:
					s.vals = pbRepeated(sf, s.vals)
				}
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					id = sf.num
				case 4:
					line, err := pbFields(sf.data)
					if err != nil {
						return nil, err
					}
					for _, lf := range line {
						if lf.tag == 1 {
							fns = append(fns, lf.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, sf := range sub {
				switch sf.tag {
				case 1:
					id = sf.num
				case 2:
					name = sf.num
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{weight: int64(s.vals[len(s.vals)-1])} // cpu/nanoseconds
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] { // innermost inlined frame first
				if i := funcName[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// layerOf attributes one sample to a bucket of cpuLayers: the innermost
// frame of its stack that belongs to a module package names the layer,
// so helpers the compiler or runtime put below it (memmove, duffcopy,
// an asyncPreempt landing pad, math.Log) are charged to the code that
// called them, the way a flat profile of the module's own code reads.
// Three costs are split out of every layer, because a change moves them
// by changing allocation or data-structure choices rather than the
// layer's logic: stacks that are collecting garbage, allocating, or
// probing a map below the module frame. Stacks with no module frame
// (the scheduler, the harness itself) are go.other.
func layerOf(stack []string) string {
	layer, below := "go.other", stack
	for i, fn := range stack {
		if l, ok := moduleLayer(fn); ok {
			layer, below = l, stack[:i]
			break
		}
	}
	for _, markers := range []struct {
		bucket   string
		prefixes []string
	}{
		{"go.gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
			"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination"}},
		{"go.malloc", []string{"runtime.mallocgc", "runtime.growslice", "runtime.newobject", "runtime.makeslice"}},
		{"go.map", []string{"runtime.map", "internal/runtime/maps."}},
	} {
		for _, fn := range below {
			for _, p := range markers.prefixes {
				if strings.HasPrefix(fn, p) {
					return markers.bucket
				}
			}
		}
	}
	return layer
}

// moduleLayer names the layer of a function of the module under test:
// avmem/internal/<layer>, with crypto/* folded into ids (the pair hash
// is its only caller).
func moduleLayer(fn string) (string, bool) {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "avmem/internal/"); ok {
		return rest, true
	}
	if strings.HasPrefix(pkg, "crypto/") {
		return "ids", true
	}
	return "", false
}

// funcPackage returns the import path of a symbol name such as
// "avmem/internal/shuffle.(*Cyclon).tick" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares folds samples into the share of CPU time each layer used.
// A module package that is not in cpuLayers (a package added after this
// benchmark was written) lands in go.other rather than being dropped.
func cpuShares(samples []stackSample) map[string]float64 {
	known := make(map[string]bool, len(cpuLayers))
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
		shares[l] = 0
	}
	var total int64
	for _, s := range samples {
		l := layerOf(s.stack)
		if !known[l] {
			l = "go.other"
		}
		shares[l] += float64(s.weight)
		total += s.weight
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= float64(total)
		}
	}
	return shares
}
