package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
)

// repoLayers are the repository modules on the run path; layers adds
// the two runtime buckets the fold charges directly.
var (
	repoLayers = []string{"occam", "network", "core", "sim", "link", "probe"}
	layers     = append(slices.Clone(repoLayers), "gc", "sched")
)

// repoPrefix is the import-path prefix of the repository's layers.
const repoPrefix = "transputer/internal/"

// gcFrames and schedFrames are function-name prefixes of Go runtime
// frames that claim a sample for allocation and collection, and for
// goroutine scheduling, parking, futex waits and spinning.  Any other
// runtime frame (map operations, memmove, hashing) passes the sample
// on to its caller.
var gcFrames = []string{
	"runtime.malloc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.gc", "runtime.mark", "runtime.scan",
	"runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge", "runtime.greyobject",
	"runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.heapSetType",
	"runtime.nextFreeFast", "runtime.deductAssistCredit", "runtime.(*mheap)",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)", "runtime.(*gcWork)",
	"runtime.(*gcControllerState)", "runtime.(*sweepLocked)", "runtime.(*pageAlloc)",
	"runtime.(*scavengerState)", "runtime._GC",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.gosched", "runtime.goschedImpl",
	"runtime.Gosched", "runtime.futex", "runtime.note", "runtime.sema", "sync.runtime_Sem",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.handoffp", "runtime.mPark",
	"runtime.runq", "runtime.stealWork", "runtime.checkTimers", "runtime.osyield",
	"runtime.usleep", "runtime.procyield", "sync.runtime_doSpin", "runtime.lock2",
	"runtime.unlock2", "runtime.execute", "runtime.resetspinning", "runtime.injectglist",
	"runtime.netpoll", "runtime.entersyscall", "runtime.exitsyscall", "runtime.mcall",
	"runtime.casgstatus", "runtime.sysmon", "runtime._System",
}

// notProgram marks samples taken in the benchmark's own calibration
// loop: they are not time the program spent, and the fold drops them.
const notProgram = "-"

// calibrateFrame is the calibration loop's symbol name, which depends
// on the package path the benchmark is built under.
var calibrateFrame = runtime.FuncForPC(reflect.ValueOf(calibrate).Pointer()).Name()

// layerOf names the layer that claims a frame, or "" if the sample
// passes on to the caller.
func layerOf(fn string) string {
	if fn == calibrateFrame {
		return notProgram
	}
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if slices.Contains(repoLayers, pkg) {
			return pkg
		}
		return ""
	}
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	for _, p := range schedFrames {
		if strings.HasPrefix(fn, p) {
			return "sched"
		}
	}
	return ""
}

// fold is CPU time charged per layer, in nanoseconds.
type fold struct {
	byLayer      map[string]int64
	unattributed int64
	total        int64
}

// foldProfile charges each sample of a gzipped CPU profile to the
// innermost frame that claims it (see layerOf); samples no frame claims
// are unattributed, and calibration samples are left out.
func foldProfile(data []byte) (fold, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return fold{}, err
	}
	return p.fold(), nil
}

func (p *profile) fold() fold {
	f := fold{byLayer: make(map[string]int64)}
	cache := make(map[uint64]string) // location -> claiming layer, "" if none
	for _, s := range p.samples {
		layer := ""
		for _, loc := range s.locs {
			l, seen := cache[loc]
			if !seen {
				for _, fid := range p.locFuncs[loc] {
					if l = layerOf(p.funcName(fid)); l != "" {
						break
					}
				}
				cache[loc] = l
			}
			if l != "" {
				layer = l
				break
			}
		}
		switch layer {
		case notProgram:
			continue
		case "":
			f.unattributed += s.value
		default:
			f.byLayer[layer] += s.value
		}
		f.total += s.value
	}
	return f
}

// profile is the part of profile.proto (github.com/google/pprof) the
// fold needs: each sample's stack and CPU nanoseconds, and the names of
// the functions at each location.
type profile struct {
	samples []profSample
	// locFuncs lists a location's functions innermost first (inlined
	// callees before the function they were inlined into).
	locFuncs map[uint64][]uint64
	funcs    map[uint64]int64 // function id -> name index into strs
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses a gzipped profile.proto message.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var samples []rawSample
	var sampleTypes []int64 // type string index of each sample value
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
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
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpu := slices.IndexFunc(sampleTypes, func(t int64) bool { return t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" })
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, s := range samples {
		if cpu < len(s.values) {
			p.samples = append(p.samples, profSample{locs: s.locs, value: s.values[cpu]})
		}
	}
	return p, nil
}

// walk calls fn for each field of a protobuf message: v holds a varint
// or fixed-width value, b a length-delimited one.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed feeds add the values of a repeated varint field, whether it
// arrived packed (b) or as a single element (v).
func packed(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
