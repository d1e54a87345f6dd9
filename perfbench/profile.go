package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuSplit is a CPU profile charged to layers: each sample goes to the
// innermost farm/internal frame on its stack, GC worker samples go to
// gc, and the rest to other. Engine samples carrying the sharded
// executor's "engine" profile label are further split by phase.
type cpuSplit struct {
	ns          []int64          // per layers index
	enginePhase map[string]int64 // select / run / merge, engine layer only
}

// cpuProfiler records one CPU profile into memory.
type cpuProfiler struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfiler, error) {
	p := &cpuProfiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and charges its samples to layers.
func (p *cpuProfiler) stop() (*cpuSplit, error) {
	pprof.StopCPUProfile()
	return splitProfile(p.buf.Bytes())
}

// splitProfile decodes a gzipped pprof profile and charges its CPU time
// to layers.
func splitProfile(gz []byte) (*cpuSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := &cpuSplit{ns: make([]int64, len(layers)), enginePhase: map[string]int64{}}
	// The CPU profile's values are [samples, nanoseconds].
	vi := len(prof.sampleTypes) - 1
	locLayer := make(map[uint64]string, len(prof.locations))
	for id, fns := range prof.locations {
		l := ""
		for _, fid := range fns {
			if name := prof.str(prof.functions[fid]); strings.HasPrefix(name, modulePrefix) {
				l = layerOfFunc(name)
				break
			}
		}
		locLayer[id] = l
	}
	gcWorker := make(map[uint64]bool)
	for id, fns := range prof.locations {
		for _, fid := range fns {
			if prof.str(prof.functions[fid]) == "runtime.gcBgMarkWorker" {
				gcWorker[id] = true
			}
		}
	}
	for _, s := range prof.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("cpu profile: sample without a time value")
		}
		v := s.values[vi]
		layer := ""
		for _, loc := range s.locations {
			if l := locLayer[loc]; l != "" {
				layer = l
				break
			}
		}
		if layer == "" {
			layer = "other"
			for _, loc := range s.locations {
				if gcWorker[loc] {
					layer = "gc"
					break
				}
			}
		}
		out.ns[layerIndex[layer]] += v
		if layer == "engine" {
			if phase, ok := s.labels["engine"]; ok {
				out.enginePhase[phase] += v
			}
		}
	}
	return out, nil
}

// --- a minimal decoder for the pprof protobuf format ---

type profSample struct {
	locations []uint64
	values    []int64
	labels    map[string]string
}

type profile struct {
	sampleTypes []int64
	samples     []profSample
	rawLabels   [][][2]int64        // per sample: (key, str) string indexes
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbReader walks protobuf wire-format fields.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = errors.New("truncated varint")
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("truncated fixed64")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = errors.New("truncated field")
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("truncated fixed32")
			return 0, 0, 0, nil, false
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
		return 0, 0, 0, nil, false
	}
	return field, wire, v, payload, r.err == nil
}

// uints decodes a repeated integer field in either packed (wire type 2)
// or unpacked (wire type 0) form, appending to dst.
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	r := pbReader{b: b}
	for {
		field, _, _, payload, ok := r.next()
		if !ok {
			break
		}
		var err error
		switch field {
		case 1: // sample_type
			p.sampleTypes = append(p.sampleTypes, 0)
		case 2: // sample
			err = p.decodeSample(payload)
		case 4: // location
			err = p.decodeLocation(payload)
		case 5: // function
			err = p.decodeFunction(payload)
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
		if err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	for i := range p.samples {
		for _, kv := range p.rawLabels[i] {
			if p.samples[i].labels == nil {
				p.samples[i].labels = map[string]string{}
			}
			p.samples[i].labels[p.str(kv[0])] = p.str(kv[1])
		}
	}
	return p, nil
}

func (p *profile) decodeSample(b []byte) error {
	var s profSample
	var labels [][2]int64
	r := pbReader{b: b}
	for {
		field, wire, v, payload, ok := r.next()
		if !ok {
			break
		}
		var err error
		switch field {
		case 1:
			s.locations, err = uints(s.locations, wire, v, payload)
		case 2:
			var vals []uint64
			vals, err = uints(nil, wire, v, payload)
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		case 3:
			var kv [2]int64
			lr := pbReader{b: payload}
			for {
				f, _, lv, _, ok := lr.next()
				if !ok {
					break
				}
				if f == 1 || f == 2 {
					kv[f-1] = int64(lv)
				}
			}
			err = lr.err
			labels = append(labels, kv)
		}
		if err != nil {
			return err
		}
	}
	p.samples = append(p.samples, s)
	p.rawLabels = append(p.rawLabels, labels)
	return r.err
}

func (p *profile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	r := pbReader{b: b}
	for {
		field, _, v, payload, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			id = v
		case 4: // line: function_id is field 1
			lr := pbReader{b: payload}
			for {
				f, _, lv, _, ok := lr.next()
				if !ok {
					break
				}
				if f == 1 {
					fns = append(fns, lv)
				}
			}
			if lr.err != nil {
				return lr.err
			}
		}
	}
	p.locations[id] = fns
	return r.err
}

func (p *profile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	r := pbReader{b: b}
	for {
		field, _, v, _, ok := r.next()
		if !ok {
			break
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	p.functions[id] = name
	return r.err
}
