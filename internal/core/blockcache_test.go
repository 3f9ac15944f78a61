package core_test

import (
	"reflect"
	"testing"

	"transputer/internal/core"
	"transputer/internal/occam"
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// runSrcCache assembles and runs a program with the block cache on or
// off, failing on faults or timeout.
func runSrcCache(t *testing.T, src string, cache bool) (*core.Machine, core.RunResult) {
	t.Helper()
	cfg := core.T424().WithMemory(64 * 1024)
	cfg.NoBlockCache = !cache
	m := core.MustNew(cfg)
	if err := m.Load(assemble(t, src)); err != nil {
		t.Fatalf("load: %v", err)
	}
	res := core.Run(m, 100*sim.Millisecond)
	if err := m.Fault(); err != nil {
		t.Fatalf("fault: %v", err)
	}
	if !res.Settled {
		t.Fatalf("program did not settle in %v", res.Time)
	}
	return m, res
}

// selfModifySource patches its own code: the first pass through
// `again` stores 1, then overwrites the already-executed `ldc 1`
// (0x41) with `ldc 9` (0x49 = 73) and jumps back.  The second pass
// must fetch the new byte even though the old instruction sits in a
// decoded block — both passes enter at `again` via a jump, so the
// stale block would be re-entered at its cached key if invalidation
// failed.
const selfModifySource = `
	ldc 0
	stl 2
	j again
again:
	ldc 1
	stl 1
	ldl 2
	cj first
	stopp
first:
	ldc 1
	stl 2
	ldc 73
	ldpi again
	sb
	j again
`

func TestSelfModifyingCodeSeesNewBytes(t *testing.T) {
	for _, cache := range []bool{true, false} {
		m, _ := runSrcCache(t, selfModifySource, cache)
		if got := m.Local(1); got != 9 {
			t.Errorf("cache=%v: x = %d, want 9 (stale instruction executed)", cache, got)
		}
	}
}

// loopSource mixes straight-line arithmetic, indirect operations and
// control flow so decoded blocks are built, re-entered and interleaved
// with interpreted instructions.
const loopSource = `
	ldc 10
	stl 1
	ldc 0
	stl 2
loop:
	ldl 1
	cj done
	ldl 2
	ldl 1
	add
	ldl 1
	ldl 1
	mul
	sum
	stl 2
	ldl 1
	adc -1
	stl 1
	j loop
done:
	stopp
`

// TestBlockCacheResultEquivalence pins the cache as a pure performance
// switch: identical results, identical statistics (including the
// per-function and per-operation histograms), identical cycle totals
// and identical final times with it on or off.
func TestBlockCacheResultEquivalence(t *testing.T) {
	for _, src := range []string{loopSource, selfModifySource} {
		mOn, resOn := runSrcCache(t, src, true)
		mOff, resOff := runSrcCache(t, src, false)
		if mOn.Local(1) != mOff.Local(1) || mOn.Local(2) != mOff.Local(2) {
			t.Errorf("results differ: %d/%d vs %d/%d",
				mOn.Local(1), mOn.Local(2), mOff.Local(1), mOff.Local(2))
		}
		if resOn.Time != resOff.Time {
			t.Errorf("final times differ: %v vs %v", resOn.Time, resOff.Time)
		}
		if !reflect.DeepEqual(mOn.Stats(), mOff.Stats()) {
			t.Errorf("stats differ:\non:  %+v\noff: %+v", mOn.Stats(), mOff.Stats())
		}
	}
}

// TestBlockCacheTraceEquivalence compares full instruction traces with
// the cache on and off: every TraceEvent — time, address, registers,
// decoded instruction, cycle counter — must be byte-identical, so the
// cached dispatch is invisible to observers too.
func TestBlockCacheTraceEquivalence(t *testing.T) {
	run := func(src string, cache bool) []core.TraceEvent {
		cfg := core.T424().WithMemory(64 * 1024)
		cfg.NoBlockCache = !cache
		m := core.MustNew(cfg)
		if err := m.Load(assemble(t, src)); err != nil {
			t.Fatalf("load: %v", err)
		}
		var evs []core.TraceEvent
		m.SetTrace(func(e core.TraceEvent) { evs = append(evs, e) })
		res := core.Run(m, 100*sim.Millisecond)
		if !res.Settled {
			t.Fatalf("program did not settle in %v", res.Time)
		}
		return evs
	}
	for _, src := range []string{loopSource, selfModifySource} {
		on := run(src, true)
		off := run(src, false)
		if len(on) != len(off) {
			t.Fatalf("trace lengths differ: %d vs %d", len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("trace event %d differs:\non:  %+v\noff: %+v", i, on[i], off[i])
			}
		}
	}
}

// timeslicedSource runs three low-priority processes — the entry
// process and two it starts — that each loop over a j back-edge for a
// different number of iterations, storing sum(i*i) into W[5], W[6] and
// W[7] of the entry workspace.  With a short timeslice the jumps both
// switch processes and, once the others have ended, find no process to
// switch to.
const timeslicedSource = `
	ws 128 16
	ldc 3
	stl 1          -- join count
	ldpi cont
	stl 0          -- join continuation
	ldc childa-after0
	ldlp -40
	startp
after0:
	ldc childb-after1
	ldlp -80
	startp
after1:
	ldc 0
	stl 3
	ldc 300
	stl 2
loopm:
	ldl 2
	cj donem
	ldl 3
	ldl 2
	ldl 2
	mul
	sum
	stl 3
	ldl 2
	adc -1
	stl 2
	j loopm
donem:
	ldl 3
	stl 7
	ldlp 0
	endp
childa:
	ldc 0
	stl 3
	ldc 200
	stl 2
loopa:
	ldl 2
	cj donea
	ldl 3
	ldl 2
	ldl 2
	mul
	sum
	stl 3
	ldl 2
	adc -1
	stl 2
	j loopa
donea:
	ldl 3
	stl 45
	ldlp 40
	endp
childb:
	ldc 0
	stl 3
	ldc 100
	stl 2
loopb:
	ldl 2
	cj doneb
	ldl 3
	ldl 2
	ldl 2
	mul
	sum
	stl 3
	ldl 2
	adc -1
	stl 2
	j loopb
doneb:
	ldl 3
	stl 86
	ldlp 80
	endp
cont:
	stopp
`

// rewriteSuccessorSource rewrites a block that is already chained as
// another block's successor: on the first pass `skip` jumps to
// `target`, chaining it; the second pass patches target's `ldc 1` into
// `ldc 9` (0x49 = 73) from a different block and then re-enters `skip`,
// whose cached successor is now stale.  x (W[1]) must end as 9.
const rewriteSuccessorSource = `
	ldc 0
	stl 2          -- pass
loop:
	ldl 2
	eqc 1
	cj skip
	ldc 73
	ldpi target
	sb
	j skip
skip:
	ldc 0
	stl 4
	j target
target:
	ldc 1
	stl 1
	ldl 2
	adc 1
	stl 2
	ldl 2
	eqc 3
	cj loop
	stopp
`

// TestBlockCacheBatchedProcesses pins the batched path — StepRun, which
// runs only with instruction tracing off and so is never covered by the
// trace comparison — against the plain interpreter on programs where
// whole loops run in one batch: several timesliced processes looping
// over j back-edges, and a store rewriting a chained successor block.
// A probe bus records the scheduler's events, whose times expose a
// process switch made inside a batch, where the clock stands still.
func TestBlockCacheBatchedProcesses(t *testing.T) {
	run := func(src string, cache bool) (*core.Machine, core.RunResult, []probe.Event) {
		cfg := core.T424().WithMemory(64 * 1024)
		cfg.NoBlockCache = !cache
		cfg.TimesliceCycles = 1000
		m := core.MustNew(cfg)
		if err := m.Load(assemble(t, src)); err != nil {
			t.Fatalf("load: %v", err)
		}
		var evs []probe.Event
		bus := probe.NewBus()
		bus.Subscribe(func(e probe.Event) { evs = append(evs, e) })
		m.AttachProbe(bus)
		res := core.Run(m, 100*sim.Millisecond)
		if err := m.Fault(); err != nil {
			t.Fatalf("fault: %v", err)
		}
		if !res.Settled {
			t.Fatalf("program did not settle in %v", res.Time)
		}
		return m, res, evs
	}
	sumSquares := func(n uint64) uint64 { return n * (n + 1) * (2*n + 1) / 6 }
	for _, tc := range []struct {
		name   string
		src    string
		locals map[int]uint64
	}{
		{"timesliced", timeslicedSource, map[int]uint64{5: sumSquares(200), 6: sumSquares(100), 7: sumSquares(300)}},
		{"rewritten-successor", rewriteSuccessorSource, map[int]uint64{1: 9, 2: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mOn, resOn, evsOn := run(tc.src, true)
			mOff, resOff, evsOff := run(tc.src, false)
			for n, want := range tc.locals {
				if on, off := mOn.Local(n), mOff.Local(n); on != want || off != want {
					t.Errorf("W[%d] = %d (cache on), %d (cache off), want %d", n, on, off, want)
				}
			}
			if resOn.Time != resOff.Time {
				t.Errorf("final times differ: %v vs %v", resOn.Time, resOff.Time)
			}
			if !reflect.DeepEqual(mOn.Stats(), mOff.Stats()) {
				t.Errorf("stats differ:\non:  %+v\noff: %+v", mOn.Stats(), mOff.Stats())
			}
			if !reflect.DeepEqual(evsOn, evsOff) {
				t.Errorf("probe events differ: %d with the cache, %d without", len(evsOn), len(evsOff))
				for i := range min(len(evsOn), len(evsOff)) {
					if evsOn[i] != evsOff[i] {
						t.Errorf("first difference at event %d:\non:  %+v\noff: %+v", i, evsOn[i], evsOff[i])
						break
					}
				}
			}
			if tc.name == "timesliced" && mOn.Stats().Timeslices < 10 {
				t.Errorf("only %d timeslices; the test needs the jumps to switch processes", mOn.Stats().Timeslices)
			}
		})
	}
}

// computeWorkSource is compute8's trial-division `work` procedure (see
// internal/bench) on a lone machine: count the primes below 2000, with
// no links and no other process.
const computeWorkSource = `DEF limit = 2000:
PROC work(VAR count, VALUE limit) =
  VAR n, d, prime:
  SEQ
    count := 0
    n := 2
    WHILE n <= limit
      SEQ
        prime := TRUE
        d := 2
        WHILE ((d * d) <= n) AND prime
          SEQ
            IF
              (n \ d) = 0
                prime := FALSE
              TRUE
                d := d + 1
        IF
          prime
            count := count + 1
          TRUE
            SKIP
        n := n + 1
:
VAR count:
work(count, limit)
`

// BenchmarkStepRunCompute measures the core layer alone: one machine
// with the block cache on runs the compute workload's inner loops, with
// no coordinator, barriers or links, and the host time per executed
// instruction is reported as ns/instr.
func BenchmarkStepRunCompute(b *testing.B) {
	comp, err := occam.Compile(computeWorkSource, occam.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.MustNew(core.T424().WithMemory(16 * 1024))
		if err := m.Load(comp.Image); err != nil {
			b.Fatal(err)
		}
		if res := core.Run(m, 0); !res.Settled || m.Fault() != nil {
			b.Fatalf("run did not settle cleanly: %+v, fault %v", res, m.Fault())
		}
		instrs += m.Stats().Instructions
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
