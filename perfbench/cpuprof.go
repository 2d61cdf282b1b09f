package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the buckets CPU samples fold into: the repository's
// modules, "gc" (runtime allocation and collection) and "other".
var cpuModules = []string{
	"workload", "core", "mapreduce", "colfmt", "dfs", "records", "queries",
	"reuse", "account", "lineage", "obs", "gc", "other",
}

// gcFramePrefixes mark a sample as allocation or collection work when
// any frame of its stack starts with one of them.
var gcFramePrefixes = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.scanobject", "runtime.markroot", "runtime.(*gcWork)",
}

// moduleOf attributes one sample stack (leaf first) to a module: gc when
// any frame is runtime allocation or collection work, else the nearest
// frame in a listed repository module, else other.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "redoop/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "/."); i >= 0 {
			pkg = pkg[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
	}
	return "other"
}

// foldCPUProfile decodes a gzipped pprof CPU profile and counts its
// samples per module.
func foldCPUProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName(fid))
			}
		}
		if len(s.values) > 0 {
			counts[moduleOf(stack)] += s.values[0]
		}
	}
	return counts, nil
}

// The decoder below reads the subset of profile.proto
// (github.com/google/pprof/proto/profile.proto) that the folding needs:
// samples, locations with their line records, functions and strings.

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strings  []string
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("cpu profile: malformed protobuf")

// protoField is one decoded protobuf field.
type protoField struct {
	num   int
	wire  int
	value uint64 // varint and fixed values
	bytes []byte // length-delimited payload
}

// walkProto calls fn for each field of a protobuf message.
func walkProto(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, n := readVarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := readVarint(b)
			if n <= 0 {
				return errProto
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := readVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := readVarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walkProto(b, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var s profSample
			err := walkProto(f.bytes, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = appendUints(s.locs, g)
				case 2:
					var vs []uint64
					vs, err = appendUints(nil, g)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkProto(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4: // line
					return walkProto(g.bytes, func(h protoField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
