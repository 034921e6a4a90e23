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

// modulePrefix marks the frames whose package is one of the repository's
// layers: vino/internal/<module>.
const modulePrefix = "vino/internal/"

// cpuShares decodes a gzipped CPU profile as runtime/pprof writes it and
// attributes every sample to the innermost frame that belongs to a
// repository module, so runtime work (allocation, channel hand-off,
// map access) counts against the layer that caused it. Samples with no
// such frame land under "other". It returns nanoseconds per module and
// the total.
func cpuShares(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU profile's second value is CPU time in nanoseconds.
	vi := p.sampleTypes - 1
	moduleOfLoc := make(map[uint64]string, len(p.locations))
	for id, fns := range p.locations {
		for _, fid := range fns {
			if m := moduleOf(p.strings, p.functions[fid]); m != "" {
				moduleOfLoc[id] = m
				break
			}
		}
	}
	shares := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, 0, errors.New("cpu profile: sample without a time value")
		}
		v := s.values[vi]
		total += v
		mod := "other"
		for _, loc := range s.locs {
			if m := moduleOfLoc[loc]; m != "" {
				mod = m
				break
			}
		}
		shares[mod] += v
	}
	return shares, total, nil
}

// moduleOf maps a function name such as
// "vino/internal/sfi.(*Program).run.func3" to "sfi".
func moduleOf(strs []string, nameIdx int64) string {
	if nameIdx <= 0 || nameIdx >= int64(len(strs)) {
		return ""
	}
	name, ok := strings.CutPrefix(strs[nameIdx], modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(name, "./"); i > 0 {
		return name[:i]
	}
	return ""
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	sampleTypes int // number of values each sample carries
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileString     = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fProfileSampleType:
			p.sampleTypes++
		case fProfileSample:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wire, v, data)
				case fSampleValue:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that may be packed
// (wire type 2) or not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
