package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"transputer/internal/network"
	"transputer/internal/sim"
)

// fingerprint is everything a run simulated: it must repeat bit for bit
// across runs of one workload at one worker count, and a change that
// only speeds the simulator up must leave it identical.
type fingerprint struct {
	simTime sim.Time
	answers string

	// core, from TotalStats.
	instructions, cycles, extMessages, deschedules uint64
	// link, summed over every connected outgoing wire.
	dataBytes, acks uint64
	busyNs          int64
	wires           int
	// sim, from EngineStats and the ports' event stamps.
	barriers, windows, shardWindows, localWindows, cross, fused uint64
	spanSum                                                     sim.Time
	schedules                                                   uint64
}

// sample is one run: its simulated fingerprint and what it cost the
// host.
type sample struct {
	fp fingerprint
	// calibWallNs and calibCPUNs time the calibration loop just before
	// the run: how fast the host was at that moment.
	calibWallNs   int64
	calibCPUNs    int64
	setupNs       int64
	runNs         int64
	cpuNs         int64
	barrierWaitNs int64
	allocs        uint64
	allocBytes    uint64
	gcCycles      uint32
}

// runOnce builds the workload fresh, runs it and reads its counters.
// The error reports a run that did not produce the expected output;
// the sample is still filled in as far as the run got.
func runOnce(w *workload, workers int) (sample, error) {
	var smp sample
	smp.calibWallNs, smp.calibCPUNs = calibrate()
	t0 := time.Now()
	s, run, err := w.setup()
	if err != nil {
		return smp, fmt.Errorf("build: %w", err)
	}
	s.SetWorkers(workers)
	s.SetBlockCache(true)
	smp.setupNs = time.Since(t0).Nanoseconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuNs()
	t1 := time.Now()
	answers, rep := run()
	smp.runNs = time.Since(t1).Nanoseconds()
	smp.cpuNs = cpuNs() - c0
	runtime.ReadMemStats(&m1)
	smp.allocs = m1.Mallocs - m0.Mallocs
	smp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	smp.gcCycles = m1.NumGC - m0.NumGC

	smp.fp = readFingerprint(s, rep, answers)
	smp.barrierWaitNs = s.EngineStats().BarrierWaitNs
	return smp, w.check(rep, answers, smp.fp)
}

func readFingerprint(s *network.System, rep network.Report, answers []int64) fingerprint {
	st := s.TotalStats()
	es := s.EngineStats()
	fp := fingerprint{
		simTime:      rep.Time,
		answers:      fmt.Sprint(answers),
		instructions: st.Instructions,
		cycles:       st.Cycles,
		extMessages:  st.ExternalIn + st.ExternalOut,
		deschedules:  st.Deschedules,
		barriers:     es.Barriers,
		windows:      es.Windows,
		shardWindows: es.ShardWindows,
		localWindows: es.LocalWindows,
		cross:        es.Cross,
		fused:        es.Fused,
		spanSum:      es.SpanSum,
	}
	for _, n := range s.Nodes() {
		fp.schedules += n.Clock().Stamp()
		for l := 0; l < 4; l++ {
			if !n.Engine.Connected(l) {
				continue
			}
			ws := n.Engine.WireStats(l)
			fp.wires++
			fp.dataBytes += ws.DataBytes
			fp.acks += ws.Acks
			fp.busyNs += ws.BusyNs
		}
	}
	return fp
}

// check applies the correctness gate to one run: it settled with no
// node halted and no process left blocked beyond the workload's idle
// servers, and it produced the expected answers and link traffic.
func (w *workload) check(rep network.Report, answers []int64, fp fingerprint) error {
	switch {
	case !rep.Settled:
		return fmt.Errorf("did not settle: %+v", rep)
	case len(rep.Halted) > 0 || len(rep.Running) > 0 || !slices.Equal(rep.Blocked, w.want.blocked):
		return fmt.Errorf("finished wedged: %+v", rep)
	case !slices.Equal(answers, w.want.answers):
		return fmt.Errorf("answers %v, want %v", answers, w.want.answers)
	case w.want.extMessages != 0 && fp.extMessages != w.want.extMessages:
		return fmt.Errorf("%d external messages, want %d", fp.extMessages, w.want.extMessages)
	case w.want.dataBytes != 0 && fp.dataBytes != w.want.dataBytes:
		return fmt.Errorf("%d link data bytes, want %d", fp.dataBytes, w.want.dataBytes)
	}
	return nil
}

// simulated is the part of a fingerprint that must not depend on the
// worker count: what the simulated machine did, not how the engine
// scheduled it.
func (fp fingerprint) simulated() fingerprint {
	return fingerprint{
		simTime: fp.simTime, answers: fp.answers,
		instructions: fp.instructions, cycles: fp.cycles, extMessages: fp.extMessages, deschedules: fp.deschedules,
		dataBytes: fp.dataBytes, acks: fp.acks, busyNs: fp.busyNs, wires: fp.wires,
	}
}

// tally collects the runs of one measurement phase.
type tally struct {
	ok       []sample
	attempts int
	failures []string
	ref      *fingerprint
}

// add records one run: a run fails if check rejected it or if its
// fingerprint differs from the first run of the workload.
func (t *tally) add(smp sample, err error) {
	t.attempts++
	if err == nil && t.ref != nil && smp.fp != *t.ref {
		err = fmt.Errorf("fingerprint %+v differs from the first run's %+v", smp.fp, *t.ref)
	}
	if err != nil {
		t.failures = append(t.failures, err.Error())
		return
	}
	if t.ref == nil {
		fp := smp.fp
		t.ref = &fp
	}
	t.ok = append(t.ok, smp)
}

// measure runs the workload back to back until d has passed, and at
// least minRuns times.
func measure(w *workload, d time.Duration, t *tally) {
	const minRuns = 3
	start := time.Now()
	for n := 0; n < minRuns || time.Since(start) < d; n++ {
		t.add(runOnce(w, w.workers))
	}
}

// median returns the median of f over the successful runs.
func (t *tally) median(f func(sample) float64) float64 {
	if len(t.ok) == 0 {
		return 0
	}
	v := make([]float64, len(t.ok))
	for i, s := range t.ok {
		v[i] = f(s)
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// refCalibNs is the time the calibration loop takes on the reference
// host, close to its time on the host of baseline.json.  Host times are
// reported scaled to it (see wallScale), so that runs made while the
// host runs slower or faster — a shared machine drifts by tens of
// percent within minutes — compare with each other.
const refCalibNs = 3e6

// wallScale and cpuScale convert a run's host wall-clock and CPU times
// to the reference host: the calibration loop's reference time over its
// time just before the run.
func (s sample) wallScale() float64 { return refCalibNs / float64(s.calibWallNs) }
func (s sample) cpuScale() float64  { return refCalibNs / float64(s.calibCPUNs) }

var (
	calibTable = make(map[uint64]uint64, 4096)
	calibSink  uint64
)

// calibrate times a fixed loop of map updates, slice appends and
// integer arithmetic — the kind of work the simulator's hot paths do,
// in standard-library code no change to the simulator touches — and
// returns its wall-clock and CPU nanoseconds.
func calibrate() (wallNs, cpuTimeNs int64) {
	clear(calibTable)
	var buf [64]uint64
	s := buf[:0]
	x := uint64(1)
	c0 := cpuNs()
	t0 := time.Now()
	for i := 0; i < 150000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 52
		calibTable[k] += x
		if x&7 == 0 {
			s = append(s[:0], calibTable[k>>1], k)
		}
	}
	wallNs = time.Since(t0).Nanoseconds()
	cpuTimeNs = cpuNs() - c0
	calibSink += uint64(len(calibTable)) + uint64(len(s))
	return wallNs, cpuTimeNs
}

// cpuNs is the CPU time (user plus system) of every thread of the
// process, read from the kernel's nanosecond process clock.
func cpuNs() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
