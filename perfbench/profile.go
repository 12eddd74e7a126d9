package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// Host CPU profile grouped by layer. runtime/pprof writes a gzipped
// profile.proto; the few messages needed here are decoded by hand so the
// benchmark needs nothing beyond the standard library.

// hostSamples is a CPU profile's samples counted by owner. A sample
// belongs to the innermost frame from the repository (package
// sud/internal/<...>/<layer>) or from the benchmark itself
// ("bench"), so runtime work such as allocation is charged to the layer
// that asked for it and container/heap to the simulator's event queue that
// calls it. Garbage-collector work — background marking, assists,
// sweeping — is "gc", and samples with no owner at all are "other".
type hostSamples map[string]int64

// add accumulates another profile's counts.
func (h hostSamples) add(o hostSamples) {
	for k, v := range o {
		h[k] += v
	}
}

// pct is owner's share of all samples, in percent.
func (h hostSamples) pct(owner string) float64 {
	var total int64
	for _, v := range h {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(h[owner]) * 100 / float64(total)
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
}

// owner maps a function name to its layer, or "" for runtime and library
// code that only ever runs on someone else's behalf.
func owner(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, "sud/internal/") {
		return ""
	}
	pkg := fn[strings.LastIndex(fn, "/")+1:]
	if dot := strings.Index(pkg, "."); dot >= 0 {
		pkg = pkg[:dot]
	}
	return pkg
}

func parseProfile(gz []byte) (hostSamples, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 2:
					s.locs = append(s.locs, packed(b)...)
				case num == 1:
					s.locs = append(s.locs, v)
				case num == 2 && wire == 2 && s.count == 0:
					if vs := packed(b); len(vs) > 0 {
						s.count = int64(vs[0])
					}
				case num == 2 && s.count == 0:
					s.count = int64(v)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	counts := hostSamples{}
	for _, s := range samples {
		who := ""
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				frames = append(frames, name(f))
			}
		}
		for _, fn := range frames {
			for _, g := range gcFrames {
				if fn == g {
					who = "gc"
				}
			}
		}
		for i := 0; i < len(frames) && who == ""; i++ {
			who = owner(frames[i])
		}
		if who == "" {
			who = "other"
		}
		counts[who] += s.count
	}
	return counts, nil
}

var errTruncated = errors.New("perfbench: truncated profile")

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value (wire 0) or bytes (wire 2).
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errTruncated
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func packed(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7F) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
