// Tbench runs the simulator throughput benchmark outside the Go test
// harness and prints a JSON stanza in the BENCH_parallel.json stage
// format, ready to paste into the record.
//
// Usage:
//
//	tbench [-workload all|ring8|grid3x3|compute8] [-workers 1,4]
//	       [-runs n] [-blockcache=true] [-limit s]
//	       [-fuse off|full]
//	       [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Each (workload, workers) pair is built fresh and run to completion
// `runs` times; the stanza reports the median wall-clock ns per run
// and the simulated-machine-cycles-per-second rate it implies.  The
// simulation itself is deterministic, so the cycle count is checked to
// be identical across runs.
//
// -fuse full co-locates every node on one shard.
// Fusion never changes the simulated results — the deterministic cycle
// check still applies — only how fast the simulator reaches them.
//
// -cpuprofile/-memprofile write native Go pprof profiles of the
// measurement runs, for finding engine hot paths (the simulated-time
// sampler profiles the programs under simulation; these profile the
// simulator itself).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"transputer/internal/bench"
	"transputer/internal/sim"
)

type result struct {
	NsPerOp       int64 `json:"ns_per_op"`
	SimcyclesPerS int64 `json:"simcycles_per_s"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(bench.Workloads(), ", "))
	workers := flag.String("workers", "1,4", "comma-separated worker counts")
	runs := flag.Int("runs", 5, "runs per (workload, workers) pair; the median is reported")
	blockcache := flag.Bool("blockcache", true, "use the predecoded block cache (results are identical either way)")
	limit := flag.Int("limit", 10, "per-run simulated-time limit in seconds")
	fuse := flag.String("fuse", "off", "shard fusion mode: off|full (results are identical at every partition)")
	cpuprofile := flag.String("cpuprofile", "", "write a native CPU profile of the measurement runs to this file")
	memprofile := flag.String("memprofile", "", "write a native heap profile (taken after the runs) to this file")
	flag.Parse()

	var names []string
	if *workload == "all" {
		names = bench.Workloads()
	} else {
		names = strings.Split(*workload, ",")
	}
	var counts []int
	for _, f := range strings.Split(*workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad -workers value %q", f))
		}
		counts = append(counts, n)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	results := make(map[string]map[string]result)
	for _, name := range names {
		per := make(map[string]result)
		groups, err := fuseGroups(*fuse, name)
		if err != nil {
			fatal(err)
		}
		if len(groups) > 0 {
			fmt.Fprintf(os.Stderr, "%s: fused %v\n", name, groups)
		}
		for _, w := range counts {
			r, err := measure(name, groups, w, *runs, *blockcache, sim.Time(*limit)*sim.Second)
			if err != nil {
				fatal(err)
			}
			per[fmt.Sprintf("workers%d", w)] = r
			fmt.Fprintf(os.Stderr, "%s/workers=%d: %d ns/op, %d simcycles/s\n",
				name, w, r.NsPerOp, r.SimcyclesPerS)
		}
		results[name] = per
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	stanza := map[string]any{"runs": *runs, "blockcache": *blockcache, "results": results}
	if *fuse != "off" {
		stanza["fuse"] = *fuse
	}
	out, err := json.MarshalIndent(stanza, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// fuseGroups resolves the -fuse mode into a placement for a workload.
func fuseGroups(mode, name string) ([][]string, error) {
	switch mode {
	case "off", "":
		return nil, nil
	case "full":
		return bench.FuseGroups(name, 1)
	default:
		return nil, fmt.Errorf("unknown fuse mode %q (want off|full)", mode)
	}
}

// measure runs one (workload, workers) pair `runs` times and returns
// the median wall time and the throughput it implies.
func measure(name string, groups [][]string, workers, runs int, blockcache bool, limit sim.Time) (result, error) {
	var wall []time.Duration
	var cycles uint64
	for i := 0; i < runs; i++ {
		s, err := bench.BuildPlaced(name, groups)
		if err != nil {
			return result{}, err
		}
		s.SetWorkers(workers)
		s.SetBlockCache(blockcache)
		start := time.Now()
		c, err := bench.Run(s, limit)
		if err != nil {
			return result{}, err
		}
		wall = append(wall, time.Since(start))
		if i == 0 {
			cycles = c
		} else if c != cycles {
			return result{}, fmt.Errorf("%s: nondeterministic cycle count: run 0 simulated %d, run %d simulated %d", name, cycles, i, c)
		}
	}
	sort.Slice(wall, func(i, j int) bool { return wall[i] < wall[j] })
	med := wall[len(wall)/2]
	return result{
		NsPerOp:       med.Nanoseconds(),
		SimcyclesPerS: int64(float64(cycles) / med.Seconds()),
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tbench:", err)
	os.Exit(1)
}
