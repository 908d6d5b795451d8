package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip'd profile.proto that runtime/pprof writes.
// Only the records the layer table needs are decoded: sample, location,
// line, function and the string table.

// stackSample is one CPU sample: its call stack as function names, leaf
// first (inlined frames expanded), and its weight in samples.
type stackSample struct {
	Stack []string
	Count int64
}

var errProto = errors.New("pprof: malformed profile.proto")

// protoBuf walks one protobuf message's fields.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uint64s decodes a repeated uint64 field occurrence, packed or not.
func uint64s(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip'd profile.proto into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string index
		stringTab []string
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = uint64s(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = uint64s(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			stringTab = append(stringTab, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(stringTab)) {
					return nil, errProto
				}
				st.Stack = append(st.Stack, stringTab[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const internalPrefix = "tradenet/internal/"

// layerOf charges a stack to the innermost tradenet/internal/<pkg> frame on
// it, so a memmove under Frame.Clone is netsim's. A stack with no such frame
// is "bench" when a harness frame is on it and "runtime" (background GC and
// the rest of the Go runtime) otherwise.
func layerOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(fn, "main.") {
			harness = true
		}
	}
	if harness {
		return "bench"
	}
	return "runtime"
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// overlayOf names the runtime cost class a stack's leaf belongs to, cutting
// across layers: "mem" (memmove/memclr), "maps", "gc", "alloc", or "".
func overlayOf(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	leaf := stack[0]
	switch {
	case hasAnyPrefix(leaf, "runtime.memmove", "runtime.memclr"):
		return "mem"
	case hasAnyPrefix(leaf, "runtime.map", "internal/runtime/maps.", "runtime.aeshash", "runtime.memhash", "runtime.strhash"):
		return "maps"
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
			"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.wbBufFlush", "runtime.gcStart") {
			return "gc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, "runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice") {
			return "alloc"
		}
	}
	return ""
}

// cpuTable folds samples into the <layer>.cpu_pct table: one share per
// declared layer, runtime.bg_cpu_pct, other.cpu_pct (harness frames and
// internal packages that are not a declared layer), and the overlays. The
// layer shares, bg and other sum to 100.
func cpuTable(samples []stackSample) map[string]float64 {
	declared := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		declared[l] = true
	}
	out := make(map[string]float64)
	for _, n := range append(shareNames(), cpuOverlays...) {
		out[n] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.Count
	}
	if total == 0 {
		return out
	}
	w := 100 / float64(total)
	for _, s := range samples {
		switch l := layerOf(s.Stack); {
		case declared[l]:
			out[l+".cpu_pct"] += float64(s.Count) * w
		case l == "runtime":
			out["runtime.bg_cpu_pct"] += float64(s.Count) * w
		default:
			out["other.cpu_pct"] += float64(s.Count) * w
		}
		if o := overlayOf(s.Stack); o != "" {
			out["runtime."+o+"_cpu_pct"] += float64(s.Count) * w
		}
	}
	return out
}
