// Perfbench is the repository's benchmark of the transputer simulator
// itself: how fast the host simulates the paper's machines, what it
// costs to set them up, and which layer of the simulator the host time
// goes to.
//
// Usage, from the repository root (run.sh builds this program first):
//
//	bash perfbench/run.sh --workload ring8 --seed 1 --seconds 20 --trace 0
//
// It builds the named workload fresh, runs it to completion with
// network.System.Run, checks the output, and repeats for --seconds.
// Timings are taken from outside the simulator: spans around the build
// and Run calls, counters read from public accessors after each run,
// and, with --trace 1, a CPU profile of the runs folded by package.
//
// With --trace 0 it reports the end-to-end metrics: simulated cycles
// per host second, host CPU seconds, set-up seconds and peak memory
// per run, and the simulated time to settle.  Before each run a fixed
// calibration loop times the host, and the three host times are scaled
// to a reference host on which that loop takes refCalibNs; the report
// also prints them unscaled.  With --trace 1 it runs
// the workload untraced for half the time and under the CPU profiler
// for the other half, and reports CPU seconds per run for each layer,
// the profiler's overhead, and each layer's counters.
//
// Every run must settle with no process blocked or halted, give the
// expected answers, and repeat the simulated fingerprint of the
// workload's first run; a run that does not counts as failed and the
// benchmark goes on.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unscaled holds the host times as this host measured them, before
	// scaling to the reference host; the report prints them for reading
	// only.
	Unscaled map[string]metric `json:"-"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled run set, 0 end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))

	out := bufio.NewWriter(os.Stdout)
	printHost(out, w, *seed)
	var res result
	if *trace == 0 {
		res = endToEnd(w, d)
	} else if res, err = perLayer(w, d); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// endToEnd measures the workload untraced and, for a workload driven
// by more than one worker, cross-checks one run at a single worker.
func endToEnd(w *workload, d time.Duration) result {
	var t tally
	measure(w, d, &t)
	if w.workers > 1 {
		crossCheck(w, &t)
	}
	for _, f := range t.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed run:", f)
	}
	m := map[string]metric{
		"simcycles_per_s": {t.median(simRate), "cycles/s"},
		"host_cpu_s":      {t.median(func(s sample) float64 { return float64(s.cpuNs) * s.cpuScale() / 1e9 }), "s"},
		"setup_s":         {t.median(func(s sample) float64 { return float64(s.setupNs) * s.wallScale() / 1e9 }), "s"},
		"heap_peak_mb":    {peakRSSMB(), "MB"},
		"sim_time_us":     {t.median(func(s sample) float64 { return float64(s.fp.simTime) / 1e3 }), "sim_us"},
	}
	res := t.result(m)
	res.Unscaled = map[string]metric{
		"simcycles_per_s": {t.median(rawRate), "cycles/s"},
		"host_cpu_s":      {t.median(func(s sample) float64 { return float64(s.cpuNs) / 1e9 }), "s"},
		"setup_s":         {t.median(func(s sample) float64 { return float64(s.setupNs) / 1e9 }), "s"},
		"calib_ms":        {t.median(func(s sample) float64 { return float64(s.calibWallNs) / 1e6 }), "ms"},
	}
	return res
}

// simRate is a run's simulated cycles per host wall-clock second,
// scaled to the reference host; rawRate is the same on this host.
func simRate(s sample) float64 { return rawRate(s) / s.wallScale() }
func rawRate(s sample) float64 { return float64(s.fp.cycles) / (float64(s.runNs) / 1e9) }

// crossCheck runs the workload once at one worker: what it simulates
// must equal the runs at the workload's own worker count.
func crossCheck(w *workload, t *tally) {
	smp, err := runOnce(w, 1)
	t.attempts++
	if err == nil && t.ref != nil && smp.fp.simulated() != t.ref.simulated() {
		err = fmt.Errorf("workers=1 fingerprint %+v differs from workers=%d's %+v", smp.fp, w.workers, *t.ref)
	}
	if err != nil {
		t.failures = append(t.failures, "workers=1 cross-check: "+err.Error())
	}
}

// perLayer measures the workload untraced for half of d and under the
// CPU profiler for the other half, and reports what each layer cost.
func perLayer(w *workload, d time.Duration) (result, error) {
	var plain, traced tally
	measure(w, d/2, &plain)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced.ref = plain.ref
	measure(w, d/2, &traced)
	pprof.StopCPUProfile()
	f, err := foldProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	for _, e := range append(plain.failures, traced.failures...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed run:", e)
	}

	runs := float64(len(traced.ok))
	if runs == 0 {
		runs = 1
	}
	perRun := func(layer string) float64 { return float64(f.byLayer[layer]) / runs } // ns
	fp := fingerprint{}
	if traced.ref != nil {
		fp = *traced.ref
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(layer string, count uint64) float64 { return ratio(perRun(layer), float64(count)) }
	m := map[string]metric{
		"trace.overhead_frac":     {1 - ratio(traced.median(simRate), plain.median(simRate)), "frac"},
		"trace.unattributed_frac": {ratio(float64(f.unattributed), float64(f.total)), "frac"},

		"core.instructions": {float64(fp.instructions), "count"},
		"core.cycles":       {float64(fp.cycles), "cycles"},
		"core.ext_messages": {float64(fp.extMessages), "count"},
		"core.deschedules":  {float64(fp.deschedules), "count"},
		"core.ns_per_instr": {nsPer("core", fp.instructions), "ns"},

		"sim.barriers":       {float64(fp.barriers), "count"},
		"sim.windows":        {float64(fp.windows), "count"},
		"sim.active_shards":  {ratio(float64(fp.shardWindows), float64(fp.windows)), "shards"},
		"sim.local_windows":  {float64(fp.localWindows), "count"},
		"sim.cross":          {float64(fp.cross), "count"},
		"sim.fused":          {float64(fp.fused), "count"},
		"sim.window_ns":      {ratio(float64(fp.spanSum), float64(fp.windows)), "sim_ns"},
		"sim.schedules":      {float64(fp.schedules), "count"},
		"sim.barrier_wait_s": {traced.median(func(s sample) float64 { return float64(s.barrierWaitNs) / 1e9 }), "s"},
		"sim.ns_per_barrier": {nsPer("sim", fp.barriers), "ns"},

		"link.data_bytes":  {float64(fp.dataBytes), "bytes"},
		"link.acks":        {float64(fp.acks), "count"},
		"link.busy_frac":   {ratio(float64(fp.busyNs), float64(fp.wires)*float64(fp.simTime)), "frac"},
		"link.ns_per_byte": {nsPer("link", fp.dataBytes), "ns"},

		"gc.allocs":            {traced.median(func(s sample) float64 { return float64(s.allocs) }), "count"},
		"gc.alloc_bytes":       {traced.median(func(s sample) float64 { return float64(s.allocBytes) }), "bytes"},
		"gc.cycles":            {traced.median(func(s sample) float64 { return float64(s.gcCycles) }), "count"},
		"gc.allocs_per_kcycle": {traced.median(func(s sample) float64 { return float64(s.allocs) / (float64(s.fp.cycles) / 1e3) }), "1/kcycle"},
	}
	for _, l := range layers {
		m[l+".cpu_s"] = metric{perRun(l) / 1e9, "s"}
	}
	all := traced
	all.attempts += plain.attempts
	all.failures = append(all.failures, plain.failures...)
	return all.result(m), nil
}

func (t *tally) result(m map[string]metric) result {
	return result{
		Correct:   len(t.failures) == 0,
		Attempted: t.attempts,
		Failed:    len(t.failures),
		Metrics:   m,
	}
}

// printHost writes the host record: results compare only within one.
func printHost(out io.Writer, w *workload, seed int64) {
	seedNote := fmt.Sprint(seed)
	if !w.seeded {
		seedNote += " (ignored: fixed program, no input)"
	}
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q date=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintf(out, "workload: %s workers=%d seed=%s\n", w.name, w.workers, seedNote)
}

// printResult writes one line per metric, then the fail fraction, then
// the result object as the last line.
func printResult(out io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-24s %-16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "%-24s %-16.6g %s\n", "fail_frac", float64(res.Failed)/float64(res.Attempted), "failed/attempted")
	names = names[:0]
	for n := range res.Unscaled {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-24s %-16.6g %s\n", "unscaled."+n, res.Unscaled[n].Value, res.Unscaled[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// cpuModel reads the host CPU's model name, for the host record.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
