package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile is attributed by layer: each sample goes to
// the package owning its innermost ugpu/... frame, except that samples in
// the Go runtime's allocator and collector, and samples whose frames are
// all in the runtime, go to "runtime". Hot spots are matched on the same
// innermost frame.

// modulePrefix is the import path prefix of the simulator's packages.
const modulePrefix = "ugpu/"

// layers are the repository's modules in report order. bench is this
// benchmark's own code; other is everything else: module packages outside
// the list (such as config) and code outside the module and runtime (such
// as the profiler's writer).
var layers = []string{
	"sm", "noc", "cache", "dram", "tlb", "vm", "workload", "gpu", "core", "serve",
	"clusterserve", "parallel", "fault", "power", "metrics", "digest", "addr",
	"trace", "runtime", "bench", "other",
}

// hotSpots match the innermost ugpu frame by function name or file.
var hotSpots = []struct {
	name  string
	match func(fn, file string) bool
}{
	{"cache.mshr", func(fn, _ string) bool { return strings.HasPrefix(fn, "ugpu/internal/cache.(*MSHR).") }},
	{"gpu.replay", func(fn, _ string) bool { return strings.Contains(fn, "ugpu/internal/gpu.(*GPU).drainReplays") }},
	{"gpu.wheel", func(_, file string) bool { return strings.HasSuffix(file, "internal/gpu/events.go") }},
	{"noc.heap", func(fn, _ string) bool {
		return strings.Contains(fn, "ugpu/internal/noc.(*deliveryHeap).") || strings.Contains(fn, "ugpu/internal/noc.deliveryHeap.")
	}},
	{"sm.pickwarp", func(fn, _ string) bool { return strings.Contains(fn, "ugpu/internal/sm.(*SM).pickWarp") }},
	{"gpu.fastforward", func(_, file string) bool { return strings.HasSuffix(file, "internal/gpu/fastforward.go") }},
}

// gcPrefixes name the runtime's allocation and collection functions.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.findObject", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.newobject", "runtime.newarray", "runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.memclrNoHeapPointers", "runtime.heapSetType", "runtime.nextFreeFast",
}

// shares is a profile's sample count per layer and hot spot.
type shares struct {
	total int64
	layer map[string]int64
	hot   map[string]int64
}

func (s shares) pct(n int64) float64 {
	if s.total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.total)
}

func (s shares) report(r *report) {
	n := int(s.total)
	covered := int64(0)
	for _, l := range layers {
		r.set(l+".cpu_pct", "%", s.pct(s.layer[l]), n)
		if l != "bench" && l != "other" {
			covered += s.layer[l]
		}
	}
	for _, h := range hotSpots {
		r.set(h.name+".cpu_pct", "%", s.pct(s.hot[h.name]), n)
	}
	r.set("profile.samples", "count", float64(s.total), n)
	r.set("profile.layer_coverage_pct", "%", s.pct(covered), n)
}

// layerOf maps a function name to its layer.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch pkg = strings.TrimPrefix(pkg, "ugpu/internal/"); pkg {
	case "cluster/serve":
		return "clusterserve"
	case "ugpu/benchmark":
		return "bench"
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute decodes a gzipped pprof CPU profile and folds its samples.
func attribute(gz []byte) (shares, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return shares{}, err
	}
	s := shares{layer: map[string]int64{}, hot: map[string]int64{}}
	for _, smp := range p.samples {
		if len(smp.values) == 0 {
			continue
		}
		n := smp.values[0]
		s.total += n
		layer, fn, file := "", "", ""
		gc := false
	frames:
		for _, id := range smp.locs {
			for _, ln := range p.locs[id] {
				f := p.funcs[ln]
				if l := layerOf(f.name); l != "" {
					layer, fn, file = l, f.name, f.file
					break frames
				}
				gc = gc || isGC(f.name)
			}
		}
		switch {
		case gc:
			s.layer["runtime"] += n
			continue
		case layer == "":
			if onlyRuntime(p, smp) {
				s.layer["runtime"] += n
			} else {
				s.layer["other"] += n
			}
			continue
		}
		s.layer[layer] += n
		for _, h := range hotSpots {
			if h.match(fn, file) {
				s.hot[h.name] += n
			}
		}
	}
	return s, nil
}

// onlyRuntime reports whether every frame of the sample is in the runtime
// package (scheduler, collector workers, signal handling).
func onlyRuntime(p *profile, smp sample) bool {
	for _, id := range smp.locs {
		for _, ln := range p.locs[id] {
			if !strings.HasPrefix(p.funcs[ln].name, "runtime.") {
				return false
			}
		}
	}
	return true
}

// profile is the subset of profile.proto the attribution reads.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]function
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type function struct{ name, file string }

// parseProfile decodes the gzipped protocol buffer runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	type rawFunc struct{ id, name, file uint64 }
	var funcs []rawFunc
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return repeated(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var f rawFunc
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					f.id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
				return nil
			})
			funcs = append(funcs, f)
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, f := range funcs {
		p.funcs[f.id] = function{name: str(f.name), file: str(f.file)}
	}
	return p, nil
}

var errTruncated = errors.New("truncated profile")

// fields walks one protobuf message, calling f with each field's number and
// its varint value (wire type 0) or bytes (wire type 2).
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// repeated handles a repeated varint field, packed (b != nil) or not.
func repeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
