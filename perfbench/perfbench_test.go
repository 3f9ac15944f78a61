package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the metric list of BENCHMARK.json at the repository root.
type contract struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkReport asserts that res carries exactly the metrics named, each
// with its unit, and that the printed report shows every one of them
// and the fail fraction.
func checkReport(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, contract names %d", len(res.Metrics), len(want))
	}
	var out bytes.Buffer
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
		if !strings.Contains(out.String(), fmt.Sprintf("%-24s %-16.6g %s\n", m.Name, got.Value, m.Unit)) {
			t.Errorf("report does not print %s with its unit:\n%s", m.Name, out.String())
		}
	}
	if !strings.Contains(out.String(), "fail_frac") {
		t.Errorf("report does not print fail_frac:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
		t.Errorf("last line %q is not the four-key result object (%v)", lines[len(lines)-1], err)
	}
}

// TestEveryWorkloadReportsItsMetrics runs every workload briefly and
// checks the end-to-end report against the contract.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("contract lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloadNames))
	}
	for i, cw := range c.Workloads {
		if cw.Name != workloadNames[i] {
			t.Fatalf("contract workload %d is %s, the benchmark's is %s", i, cw.Name, workloadNames[i])
		}
		t.Run(cw.Name, func(t *testing.T) {
			w, err := newWorkload(cw.Name, 7)
			if err != nil {
				t.Fatal(err)
			}
			res := endToEnd(w, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkReport(t, res, c.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestExactCountersRepeat runs each workload twice: every counter the
// fingerprint holds must repeat bit for bit.  dbsearch128 must also
// simulate the same thing at one worker as at two.
func TestExactCountersRepeat(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			a, err := runOnce(w, w.workers)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOnce(w, w.workers)
			if err != nil {
				t.Fatal(err)
			}
			if a.fp != b.fp {
				t.Errorf("fingerprints differ:\n%+v\n%+v", a.fp, b.fp)
			}
			if w.workers == 1 {
				return
			}
			one, err := runOnce(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if one.fp.simulated() != a.fp.simulated() {
				t.Errorf("workers=1 simulated\n%+v\nworkers=%d simulated\n%+v", one.fp.simulated(), w.workers, a.fp.simulated())
			}
		})
	}
}

// TestWrongAnswerCounted checks that a run whose output differs from
// the expectation counts as failed instead of stopping the benchmark.
func TestWrongAnswerCounted(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*expectation)
	}{
		{"ring8", func(e *expectation) { e.extMessages++ }},
		{"compute8", func(e *expectation) { e.dataBytes++ }},
		{"dbsearch128", func(e *expectation) {
			e.answers = append([]int64(nil), e.answers...)
			e.answers[0]++
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := newWorkload(tc.name, 5)
			if err != nil {
				t.Fatal(err)
			}
			tc.spoil(&w.want)
			res := endToEnd(w, 0)
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("correct=%v attempted=%d failed=%d, want every run failed", res.Correct, res.Attempted, res.Failed)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), fmt.Sprintf("%-24s %-16.6g", "fail_frac", 1.0)) {
				t.Errorf("fail_frac not 1:\n%s", out.String())
			}
		})
	}
}

// TestTraceFold runs every workload's traced set briefly: the report
// must carry every per-layer metric of the contract, and the fold must
// attribute at least 95% of the profile's CPU time to a layer.
func TestTraceFold(t *testing.T) {
	c := readContract(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 9)
			if err != nil {
				t.Fatal(err)
			}
			res, err := perLayer(w, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			checkReport(t, res, c.PerLayer)
			if u := res.Metrics["trace.unattributed_frac"].Value; u >= 0.05 {
				t.Errorf("%.1f%% of CPU time unattributed", 100*u)
			}
		})
	}
}

// TestFoldRule pins the attribution rule on hand-built stacks: the
// innermost repository frame claims a sample, runtime map frames pass
// it to their caller, and allocation and scheduler frames claim it for
// gc and sched, and calibration samples are left out.
func TestFoldRule(t *testing.T) {
	names := []string{
		"",
		"transputer/internal/core.(*Machine).StepRun",
		"internal/runtime/maps.(*Map).getWithKeySmall",
		"runtime.mapaccess1_fast64",
		"runtime.mallocgc",
		"transputer/internal/sim.(*Coordinator).Run.func1",
		"runtime.futex",
		"main.main",
		"transputer/internal/bench.Run",
		calibrateFrame,
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}, strs: names}
	for i := range names[1:] {
		id := uint64(i + 1)
		p.locFuncs[id] = []uint64{id}
		p.funcs[id] = int64(i + 1)
	}
	p.locFuncs[10] = []uint64{2, 1} // a map access inlined into core
	p.samples = []profSample{
		{locs: []uint64{10, 8}, value: 1},         // inlined map access
		{locs: []uint64{3, 1}, value: 10},         // map access called from core
		{locs: []uint64{4, 3, 1}, value: 100},     // allocation inside a map grow
		{locs: []uint64{6, 5, 8, 7}, value: 1000}, // futex wait under sim
		{locs: []uint64{8, 7}, value: 10000},      // harness frames only
		{locs: []uint64{3, 9, 7}, value: 100000},  // calibration loop
	}
	f := p.fold()
	want := map[string]int64{"core": 11, "gc": 100, "sched": 1000}
	for l, v := range want {
		if f.byLayer[l] != v {
			t.Errorf("%s = %d, want %d (fold %+v)", l, f.byLayer[l], v, f)
		}
	}
	if f.unattributed != 10000 || f.total != 11111 {
		t.Errorf("unattributed %d of %d, want 10000 of 11111", f.unattributed, f.total)
	}
}

// TestHostScaling pins the direction of the calibration scaling: a run
// made while the calibration loop took twice its reference time ran on
// a host half as fast, so its scaled rate doubles and its scaled times
// halve.
func TestHostScaling(t *testing.T) {
	s := sample{
		fp:          fingerprint{cycles: 1e6},
		calibWallNs: 2 * refCalibNs, calibCPUNs: 2 * refCalibNs,
		setupNs: 4e6, runNs: 1e9, cpuNs: 1e9,
	}
	if got := simRate(s); got != 2*rawRate(s) {
		t.Errorf("scaled rate %v, want twice the raw %v", got, rawRate(s))
	}
	if got := float64(s.cpuNs) * s.cpuScale(); got != 0.5e9 {
		t.Errorf("scaled CPU %v ns, want 0.5e9", got)
	}
	if got := float64(s.setupNs) * s.wallScale(); got != 2e6 {
		t.Errorf("scaled setup %v ns, want 2e6", got)
	}
}
