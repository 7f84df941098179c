package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// A reader for the subset of pprof's profile.proto the attribution needs —
// sample types, samples (stack + values) and the location → function-name
// chain — so the benchmark needs neither `go tool pprof` nor a dependency.
//
// Field numbers (profile.proto): Profile{sample_type=1, sample=2,
// location=4, function=5, string_table=6}; ValueType{type=1, unit=2};
// Sample{location_id=1, value=2}; Location{id=1, line=4};
// Line{function_id=1}; Function{id=1, name=2}.

type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("pprof: varint overflows 64 bits")
	return 0
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// fields calls f for every field of the message in b. A varint field
// arrives as (num, v, nil), a length-delimited one as (num, 0, data).
func fields(b []byte, f func(num int, v uint64, data []byte)) error {
	p := pbuf{b: b}
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v := p.varint()
			if p.err == nil {
				f(num, v, nil)
			}
		case 2:
			data := p.bytes()
			if p.err == nil {
				f(num, 0, data)
			}
		case 1, 5:
			n := 8
			if wire == 5 {
				n = 4
			}
			if len(p.b) < n {
				return io.ErrUnexpectedEOF
			}
			p.b = p.b[n:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return p.err
}

// repeated decodes a repeated integer field that may arrive packed (data)
// or one element at a time (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

type stackSample struct {
	// stack is the function names leaf first, inlined frames expanded.
	stack  []string
	values []int64
}

type profile struct {
	sampleTypes []string // "samples", "cpu", "alloc_objects", "alloc_space", ...
	samples     []stackSample
}

func gunzip(raw []byte) ([]byte, error) {
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		return raw, nil // pprof also accepts uncompressed profiles
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err == nil {
		raw, err = gunzip(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func parseProfile(raw []byte) (*profile, error) {
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs      []string
		typeIdx   []uint64
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		inner     error
	)
	keep := func(err error) {
		if err != nil && inner == nil {
			inner = err
		}
	}
	err := fields(raw, func(num int, _ uint64, data []byte) {
		switch num {
		case 1: // sample_type
			keep(fields(data, func(n int, v uint64, _ []byte) {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
			}))
		case 2: // sample
			var s rawSample
			keep(fields(data, func(n int, v uint64, d []byte) {
				var err error
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				keep(err)
			}))
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			keep(fields(data, func(n int, v uint64, d []byte) {
				switch n {
				case 1:
					id = v
				case 4:
					keep(fields(d, func(n int, v uint64, _ []byte) {
						if n == 1 {
							funcs = append(funcs, v)
						}
					}))
				}
			}))
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			keep(fields(data, func(n int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, rs := range samples {
		s := stackSample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// valueIndex returns the position of the named sample type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pprof: no sample type %q (have %v)", name, p.sampleTypes)
}

// Attribution.

const (
	layerGC    = "gc_background"
	layerOther = "other"
)

var layerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// frameLayer names the layer a function belongs to, or "" for a frame
// outside the repository (runtime, standard library).
func frameLayer(fn string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layerSet[pkg] {
			return pkg
		}
		return "harness" // sim, chaos, sweep, metrics, core, congress, tiger
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/"):
		return "harness" // the benchmark itself, cmd/, examples/
	}
	return ""
}

// gcRoots are the entry functions of the collector's own goroutines; a
// stack that reaches one of them without passing a repository frame is
// background GC. (Assist work done inside a layer's allocation lands on
// that layer by the nearest-frame rule.)
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// stackLayer charges a stack (leaf first) to the nearest repository frame
// walking up from the leaf — so map, hash, copy and malloc time lands on
// the layer that asked for it.
func stackLayer(stack []string) string {
	gc := false
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				gc = true
			}
		}
	}
	if gc {
		return layerGC
	}
	return layerOther
}

// attribute sums the named sample value per layer.
func (p *profile) attribute(sampleType string) (map[string]float64, error) {
	idx, err := p.valueIndex(sampleType)
	if err != nil {
		return nil, err
	}
	per := map[string]float64{}
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		per[stackLayer(s.stack)] += float64(s.values[idx])
	}
	return per, nil
}
