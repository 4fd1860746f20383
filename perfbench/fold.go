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

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "lauberhorn/internal/"

// layers are the layers a CPU sample can be charged to: the simulator's
// packages named as in DESIGN.md, the Go runtime, and "other" for the
// remaining packages (stats, cpu, stackdrv, the harness itself).
var layers = []string{
	"sim", "wire", "rpc", "fabric", "mesi", "core", "nicdma", "kernel", "kstack",
	"bypass", "transport", "workload", "cluster", "experiments", "runtime", "other",
}

// foldProfile decodes a gzip-compressed pprof CPU profile and counts its
// samples per layer.
//
// A sample is charged to the package of its leaf frame (the innermost
// function, inlined frames included). Go runtime frames (runtime, sync,
// internal/...) are charged to "runtime". Other standard-library frames
// (encoding/binary, math, sort, ...) are helpers inlined or called by the
// simulator, so the sample goes to the nearest simulator frame above
// them: encoding/binary called from wire counts as wire. A sub-package
// counts as its parent (sim/shard is sim).
func foldProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		out[layerOf(frames)] += s.count
	}
	return out, nil
}

// layerOf attributes one stack, leaf first.
func layerOf(frames []string) string {
	for i, f := range frames {
		pkg := packageOf(f)
		switch {
		case strings.HasPrefix(pkg, modulePrefix):
			return layerName(pkg)
		case i == 0 && isRuntime(pkg):
			return "runtime"
		case !isStd(pkg):
			return "other"
		}
	}
	return "other"
}

// layerName maps a simulator package to its layer: the first path
// element below internal/, if it is a known layer.
func layerName(pkg string) string {
	name := strings.TrimPrefix(pkg, modulePrefix)
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name = name[:i]
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return "other"
}

// isRuntime reports whether pkg belongs to the Go runtime proper.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/") || pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		pkg == "syscall" || pkg == "unique" || pkg == "weak"
}

// isStd reports whether pkg is a standard-library package: no dot in
// its first path element, and neither the simulator nor a main package.
func isStd(pkg string) bool {
	first, _, _ := strings.Cut(pkg, "/")
	return !strings.Contains(first, ".") && first != "lauberhorn" && pkg != "main"
}

// packageOf extracts the import path from a symbol name such as
// "lauberhorn/internal/wire.(*FramePool).get" or
// "slices.SortFunc[go.shape.*uint8]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile holds the parts of a pprof profile the fold needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses the protobuf encoding of perftools.profiles.Profile
// (fields: 2 sample, 4 location, 5 function, 6 string_table).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, sub)
				case 2:
					values = appendPacked(values, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside string table", idx)
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (msg non-nil).
func appendPacked(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (msg is nil for non-bytes fields).
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			msg = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
		default:
			return errBadProto
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}
