package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the one corner of the pprof format (gzip-compressed
// protobuf, profile.proto) the benchmark needs: for every CPU sample, the
// name of its leaf function. No dependency offers this from the standard
// library alone.

// Field numbers of profile.proto.
const (
	profileSample      = 2
	profileLocation    = 4
	profileFunction    = 5
	profileStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

var errTruncated = errors.New("pprof: truncated message")

// field is one decoded protobuf field: a varint value or a length-delimited
// payload.
type field struct {
	num   int
	wire  int
	value uint64
	data  []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// fields walks one message, calling fn for each field.
func fields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.value, rest, err = readVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errTruncated
			}
			rest = rest[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedVarints reads a repeated integer field, packed or not.
func repeatedVarints(f field, into []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(into, f.value), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		into, b = append(into, v), rest
	}
	return into, nil
}

// leafSamples decodes a gzip-compressed pprof profile and returns, per
// leaf function name, the sum of the samples' first value (for a CPU
// profile, the sample count).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	var stringTable []string
	locationLeaf := map[uint64]uint64{} // location id → function id of its innermost line
	functionNameIdx := map[uint64]uint64{}
	err = fields(raw, func(f field) error {
		switch f.num {
		case profileSample:
			var locs, vals []uint64
			if err := fields(f.data, func(sf field) (err error) {
				switch sf.num {
				case sampleLocationID:
					locs, err = repeatedVarints(sf, locs)
				case sampleValue:
					vals, err = repeatedVarints(sf, vals)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], count: int64(vals[0])})
			}
		case profileLocation:
			var id, fn uint64
			seenLine := false
			if err := fields(f.data, func(lf field) error {
				switch lf.num {
				case locationID:
					id = lf.value
				case locationLine:
					// The first line is the innermost inlined callee.
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(lf.data, func(ln field) error {
						if ln.num == lineFunction {
							fn = ln.value
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locationLeaf[id] = fn
		case profileFunction:
			var id, name uint64
			if err := fields(f.data, func(ff field) error {
				switch ff.num {
				case functionID:
					id = ff.value
				case functionName:
					name = ff.value
				}
				return nil
			}); err != nil {
				return err
			}
			functionNameIdx[id] = name
		case profileStringTable:
			stringTable = append(stringTable, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := functionNameIdx[locationLeaf[s.leaf]]; ok && idx < uint64(len(stringTable)) {
			name = stringTable[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// cpuLayers are the layers CPU samples are attributed to, in report order.
var cpuLayers = []string{"sim", "frame", "netsim", "ipv4", "udp", "tcp", "core", "redirector", "rmp", "obs", "runtime", "other"}

// layerOf names the layer that owns a function: the repo's module for the
// protocol path, "obs" for the observability ring, "runtime" for the Go
// runtime (malloc, GC, write barriers, memmove), "other" for applications,
// the testbed, the facade and this harness.
func layerOf(function string) string {
	const internal = "hydranet/internal/"
	if rest, ok := strings.CutPrefix(function, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		switch pkg {
		case "sim", "frame", "netsim", "ipv4", "udp", "tcp", "core", "redirector", "rmp":
			return pkg
		case "obs", "metrics", "capture", "series", "prof", "invariant", "trace":
			return "obs"
		}
		return "other"
	}
	if strings.HasPrefix(function, "runtime.") || strings.HasPrefix(function, "runtime/") ||
		strings.HasPrefix(function, "internal/") || function == "gcWriteBarrier" {
		return "runtime"
	}
	return "other"
}

// cpuShares folds leaf samples into per-layer shares of all samples.
func cpuShares(leaves map[string]int64) (shares map[string]float64, total int64) {
	perLayer := map[string]int64{}
	for fn, n := range leaves {
		perLayer[layerOf(fn)] += n
		total += n
	}
	shares = map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(perLayer[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}
