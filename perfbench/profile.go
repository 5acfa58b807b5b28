package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuProfile is a CPU profile being written for one timed phase.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile(dir string) (*cpuProfile, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and reduces it to per-package self-time shares.
func (p *cpuProfile) stop() (*hostShares, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(p.f.Name())
	if err != nil {
		return nil, err
	}
	return readShares(raw)
}

// hostShares is CPU time split by the package of the innermost frame
// (self time), plus the share spent anywhere under the garbage collector.
type hostShares struct {
	total, gc int64
	self      map[string]int64
}

// simLayers are the simulator's packages, reported as <layer>.host_pct.
var simLayers = []string{"sim", "pe", "mcache", "ring", "kernel", "sched"}

func (s *hostShares) report(rep *report) {
	pct := func(v int64) float64 { return 100 * ratio(v, s.total) }
	for _, l := range simLayers {
		rep.set(l+".host_pct", pct(s.self["queuemachine/internal/"+l]), "%")
	}
	rep.set("runtime.gc_pct", pct(s.gc), "%")
}

// gcFrame reports whether a runtime function does collector work: the
// background mark workers, mutator assists, sweeping and scavenging.
func gcFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge")
}

// funcPackage is the import path of a symbol such as
// "queuemachine/internal/sim.(*System).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// readShares decodes a gzipped pprof profile.proto — just the fields the
// shares need — and weights each sample by its last value (CPU time).
func readShares(raw []byte) (*hostShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.weight = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	sh := &hostShares{self: map[string]int64{}}
	for _, s := range samples {
		sh.total += s.weight
		if len(s.locs) == 0 {
			continue
		}
		if fns := locs[s.locs[0]]; len(fns) > 0 {
			sh.self[funcPackage(name(fns[0]))] += s.weight
		}
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if gcFrame(name(fn)) {
					sh.gc += s.weight
					break stack
				}
			}
		}
	}
	return sh, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field that arrived either as a
// single varint (data nil) or packed (data holds the varints).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
