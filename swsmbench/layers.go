package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// packageLayers folds the repository's packages into the simulator's
// layers, longest path first within a family.  A package maps to the
// first entry that is a path prefix of it; TestEveryPackageHasALayer
// fails when a package under internal/ matches none, so a new package
// cannot slip silently into "other".
var packageLayers = []struct{ prefix, layer string }{
	{"swsm/internal/sim", "sim"},
	{"swsm/internal/core", "core"},
	{"swsm/internal/stats", "core"}, // per-thread cycle and counter accounting
	{"swsm/internal/cache", "cache"},
	{"swsm/internal/mem", "mem"},
	{"swsm/internal/apps", "apps"},
	{"swsm/internal/proto", "proto"},
	{"swsm/internal/hetero", "proto"}, // home migration runs in protocol handlers
	{"swsm/internal/comm", "comm"},
	{"swsm/internal/fault", "comm"}, // per-transmission fault decisions
	{"swsm/internal/consistency", "consistency"},
	{"swsm/internal/harness", "harness"},
	{"swsm/internal/trace", "harness"}, // the simulator's event tracer, off in every pass
	{"swsm/internal/server", "server"},
	{"swsm/internal/obs", "server"},
	{"swsm/internal/cluster", "server"},
	{"swsm/internal/explore", "server"},
	{"swsm/internal/store", "store"},
}

// layerOfPackage reports the layer of a repository package.
func layerOfPackage(pkg string) (string, bool) {
	for _, pl := range packageLayers {
		if pkg == pl.prefix || strings.HasPrefix(pkg, pl.prefix+"/") {
			return pl.layer, true
		}
	}
	return "", false
}

// packageOf extracts the import path from a symbol name such as
// "swsm/internal/core.(*Thread).pre" or "runtime.mallocgc".
func packageOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// Runtime functions whose name contains one of these belong to memory
// allocation and garbage collection; the rest of the runtime (park,
// unpark, futex, channel operations, the scheduler) is "sched".
var gcNames = []string{
	"malloc", "gc", "GC", "mark", "Mark", "sweep", "Sweep", "scav",
	"mheap", "mcache", "mcentral", "mspan", "heapBits", "Barrier",
	"wbBuf", "scanobject", "scanblock", "scanstack", "scanframe",
	"greyobject", "findObject", "spanOf", "newobject", "makeslice",
	"growslice", "newarray", "memclr", "pageAlloc", "typePointers",
	"nextFree", "refill", "allocSpan",
}

// Runtime helpers that do the caller's own work (copies, hashing, map
// and string operations) are charged to the caller, like the standard
// library.
var callerNames = []string{
	"memmove", "memequal", "memhash", "aeshash", "strhash", "nilinterhash",
	"interhash", "typehash", "efaceeq", "ifaceeq", "map", "concatstring",
	"slicebytetostring", "stringtoslicebyte", "cmpstring", "intstring",
	"convT", "assertE2I", "typeAssert", "getitab", "duffcopy", "duffzero",
	"memclrHasPointers",
}

// stackLayer folds one sampled stack (innermost frame first) into a
// layer.  The leaf frame decides: a repository package by the table
// above, the runtime into "gc" or "sched".  A leaf in the standard
// library, or a runtime helper doing the caller's work, is charged to
// the innermost repository frame below it, so encoding a row or hashing
// a store key counts to the layer that asked for it; a stack with no
// repository frame is "other".
func stackLayer(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	pkg := packageOf(leaf)
	if pkg == "runtime" {
		name := strings.TrimPrefix(leaf, "runtime.")
		if !hasAnyPrefix(name, callerNames) {
			for _, s := range gcNames {
				if strings.Contains(name, s) {
					return "gc"
				}
			}
			return "sched"
		}
	}
	if l, ok := layerOfPackage(pkg); ok {
		return l
	}
	for _, f := range frames[1:] {
		if l, ok := layerOfPackage(packageOf(f)); ok {
			return l
		}
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// seconds whose stacks fold into each layer.
func foldProfile(data []byte) (map[string]float64, error) {
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.str(p.funcNames[fid]))
			}
		}
		out[stackLayer(frames)] += float64(s.values[vi]) / 1e9
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto message the fold
// needs: sample stacks and values, and the location -> function -> name
// tables.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []struct {
		locs   []uint64
		values []int64
	}
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string-table index of its name
	strings   []string
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof).
const (
	pbProfileSampleType = 1
	pbProfileSample     = 2
	pbProfileLocation   = 4
	pbProfileFunction   = 5
	pbProfileString     = 6
	pbValueTypeType     = 1
	pbSampleLocation    = 1
	pbSampleValue       = 2
	pbLocationID        = 1
	pbLocationLine      = 4
	pbLineFunction      = 1
	pbFunctionID        = 1
	pbFunctionName      = 2
)

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case pbProfileSampleType:
			return fields(b, func(num, wire int, v uint64, _ []byte) error {
				if num == pbValueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case pbProfileSample:
			var locs []uint64
			var vals []int64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case pbSampleLocation:
					locs, err = appendVarints(locs, wire, v, b)
				case pbSampleValue:
					var u []uint64
					if u, err = appendVarints(nil, wire, v, b); err == nil {
						for _, x := range u {
							vals = append(vals, int64(x))
						}
					}
				}
				return err
			})
			p.samples = append(p.samples, struct {
				locs   []uint64
				values []int64
			}{locs, vals})
			return err
		case pbProfileLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case pbLocationID:
					id = v
				case pbLocationLine:
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == pbLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case pbProfileFunction:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case pbFunctionID:
					id = v
				case pbFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case pbProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and either the scalar value (varint and fixed
// types) or the payload (length-delimited type).
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which encoders may
// write one element at a time or packed.
func appendVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}
