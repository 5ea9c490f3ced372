package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// modules are the repository packages whose CPU self time the traced run
// reports, by the last element of their import path.
var modules = []string{
	"sim", "host", "nic", "fabric", "pcie", "cachesim", "memory", "rpcwire",
	"scalerpc", "rawrpc", "rpccore", "loadgen", "rds", "shard", "txn", "mica",
	"telemetry", "stats", "smallbank", "cluster", "ctrlplane",
}

const internalPrefix = "scalerpc/internal/"

// profileHz is the CPU profile's sampling rate. Linux delivers per-thread
// CPU timer signals at most once per scheduler tick (often 250 Hz), so a
// higher rate would silently drop samples.
const profileHz = 200

// profileBucketNames lists the buckets samples are charged to.
func profileBucketNames() []string {
	var out []string
	for _, m := range modules {
		out = append(out, m+".self_s")
	}
	return append(out, "internal_other.self_s", "go.sched_s", "go.gc_s", "go.other_s")
}

// selfTimeMetrics lists the profile's per-layer metrics: the CPU seconds
// charged to each bucket per run, and their total.
func selfTimeMetrics() []layerMetric {
	var out []layerMetric
	for _, b := range profileBucketNames() {
		out = append(out, layerMetric{b, "s"})
	}
	return append(out, layerMetric{"profile.total_s", "s"})
}

// Runtime functions that mark a sample without repository frames as
// garbage collection or goroutine scheduling.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.markroot",
		"runtime.scanobject", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.gcStart",
		"runtime.sweepone", "runtime.gcAssistAlloc",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.goexit0", "runtime.gosched_m",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.execute",
		"runtime.goready", "runtime.ready", "runtime.notewakeup",
		"runtime.notesleep", "runtime.futex", "runtime.mPark",
	}
)

// bucketOf charges one sample's stack, innermost frame first, to the
// innermost repository module on it, else to go.gc, go.sched or go.other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
				pkg = pkg[i+1:]
			}
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if slices.Contains(modules, pkg) {
				return pkg + ".self_s"
			}
			return "internal_other.self_s"
		}
	}
	for _, fn := range stack {
		if slices.Contains(gcFrames, fn) {
			return "go.gc_s"
		}
	}
	for _, fn := range stack {
		if slices.Contains(schedFrames, fn) {
			return "go.sched_s"
		}
	}
	return "go.other_s"
}

// profileBuckets parses the CPU profiles of the traced samples and returns
// each bucket's CPU seconds per run, every bucket present, plus the total
// the buckets must add up to.
func profileBuckets(ss []sample) (map[string]float64, float64, error) {
	ns := make(map[string]int64)
	var total int64
	for _, s := range ss {
		for _, raw := range s.ph.profiles {
			stacks, err := parseProfile(raw)
			if err != nil {
				return nil, 0, fmt.Errorf("parse cpu profile: %w", err)
			}
			for _, st := range stacks {
				ns[bucketOf(st.frames)] += st.cpuNs
				total += st.cpuNs
			}
		}
	}
	perRun := float64(len(ss)) * 1e9
	out := make(map[string]float64)
	for _, b := range profileBucketNames() {
		out[b] = float64(ns[b]) / perRun
	}
	return out, float64(total) / perRun, nil
}

// stackSample is one profile sample: its frames, innermost first, and its
// CPU time.
type stackSample struct {
	frames []string
	cpuNs  int64
}

// parseProfile decodes the parts of a gzipped pprof protobuf profile that
// bucketing needs: samples, locations (with inlined lines) and function
// names.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, b)
				case 2:
					var u []uint64
					u, err = appendUints(nil, wire, v, b)
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("sample without values")
		}
		st := stackSample{cpuNs: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				i := fnName[fn]
				if i < 0 || int(i) >= len(strs) {
					return nil, fmt.Errorf("function name index %d out of range", i)
				}
				st.frames = append(st.frames, strs[i])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its integer value or its bytes.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
