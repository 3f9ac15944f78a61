package core

import "transputer/internal/sim"

// Driver is the scheduling surface a Runner needs from the simulation
// engine.  A standalone *sim.Kernel and a coordinator *sim.Port both
// satisfy it; the batch-stepping extensions (NextTime, Horizon,
// SetOffset, Stamp, AdvanceTo) let the runner execute many
// instructions per heap event while observable time stays exactly as
// if each instruction had been its own event.
type Driver interface {
	Now() sim.Time
	Schedule(at sim.Time, fn func()) sim.EventID
	Cancel(id sim.EventID)
	NextTime() (sim.Time, bool)
	Horizon() sim.Time
	SetOffset(d sim.Time)
	Stamp() uint64
	AdvanceTo(t sim.Time)
	// PromiseQuiet records that the event id — the runner's pending
	// continuation — will not start or acknowledge any link transfer
	// before the given time.  A sharded coordinator uses the promise to
	// extend neighbouring windows past the per-link lookahead; a
	// standalone kernel ignores it.  The promise is superseded the
	// moment id fires (the runner re-promises, or not, at the next
	// batch end).
	PromiseQuiet(id sim.EventID, until sim.Time)
}

// Runner drives a machine from a simulation driver.  Instructions are
// executed in batches: one heap event runs a tight loop of Machine.Step
// calls, advancing a virtual-time offset per instruction, until the
// next scheduled event, the shard's window horizon, or the machine
// idling or halting.  The machine's ready callback resumes a stopped
// runner.
type Runner struct {
	M      *Machine
	drv    Driver
	active bool
	// stepFn is r.step bound once: the runner schedules a continuation
	// per batch, and a fresh method value each time is an allocation on
	// the engine's hottest cycle.
	stepFn func()
	// BusyCycles counts cycles the processor spent executing; the
	// difference from elapsed time is idle time.
	BusyCycles uint64
}

// NewRunner attaches a machine to a driver (as its clock) and arranges
// stepping.  The external engine, if any, must be attached by the
// caller before or after.
func NewRunner(d Driver, m *Machine) *Runner {
	r := &Runner{M: m, drv: d}
	r.stepFn = r.step
	m.Attach(driverClock{d}, nil)
	m.OnReady(r.resume)
	return r
}

// driverClock adapts a Driver to the machine's Clock interface.
type driverClock struct{ d Driver }

func (c driverClock) Now() sim.Time                        { return c.d.Now() }
func (c driverClock) At(t sim.Time, fn func()) sim.EventID { return c.d.Schedule(t, fn) }
func (c driverClock) Cancel(id sim.EventID)                { c.d.Cancel(id) }

// Start begins stepping the machine if it has work.
func (r *Runner) Start() { r.resume() }

func (r *Runner) resume() {
	if r.active || r.M.Halted() {
		return
	}
	r.active = true
	r.drv.Schedule(r.drv.Now(), r.stepFn)
}

// bound returns the exclusive virtual time the current batch may run
// to: the earlier of the next scheduled event (which must interleave
// exactly as it would with one event per instruction) and the driver's
// horizon (the shard's conservative window).
func (r *Runner) bound() sim.Time {
	b := r.drv.Horizon()
	if t, ok := r.drv.NextTime(); ok && t < b {
		b = t
	}
	return b
}

// step executes one batch of instructions.  The first instruction runs
// unconditionally (its event was scheduled inside the bound); each
// subsequent instruction runs only while the batch's virtual time
// stays strictly before bound(), so any pending event — scheduled
// earlier, hence with an earlier tie-break — fires first, exactly as
// in one-event-per-instruction stepping.
func (r *Runner) step() {
	r.active = false
	m := r.M
	if m.Halted() {
		return
	}
	d := r.drv
	base := d.Now()
	cyc := int64(m.cfg.CycleNs)
	var off, last sim.Time
	stamp := d.Stamp()
	bound := r.bound()
	for {
		last = base + off
		// Fast path: a run of batchable predecoded records — pure
		// compute, cj, and j where it cannot switch processes —
		// executes in one call, with the same per-instruction
		// accounting and the same bound semantics as the stepwise loop
		// below.  Batchable records cannot schedule or cancel events,
		// so the cached bound stays valid; they cannot deschedule, so
		// only a halt can park the machine.
		if n, lastC := m.StepRun(int64(bound - (base + off))); n > 0 {
			r.BusyCycles += uint64(n)
			off += sim.Time(int64(n) * cyc)
			if m.Halted() {
				last = base + off - sim.Time(int64(lastC)*cyc)
				d.SetOffset(0)
				d.AdvanceTo(last)
				return
			}
			if base+off >= bound {
				break
			}
			d.SetOffset(off)
			continue
		}
		cycles := m.Step()
		r.BusyCycles += uint64(cycles)
		delay := sim.Time(int64(cycles) * int64(m.cfg.CycleNs))
		if cycles == 0 {
			delay = sim.Time(m.cfg.CycleNs)
		}
		off += delay
		if m.Halted() || (m.Idle() && m.longOp == nil && m.pendingSwitchCycles == 0) {
			// The machine stopped producing work at `last`; park the
			// clock there, as stepwise execution would have.
			d.SetOffset(0)
			d.AdvanceTo(last)
			return
		}
		if s := d.Stamp(); s != stamp {
			stamp = s
			bound = r.bound()
		}
		if base+off >= bound {
			break
		}
		d.SetOffset(off)
	}
	d.SetOffset(0)
	r.active = true
	id := d.Schedule(base+off, r.stepFn)
	if ahead := m.SendLookaheadCycles(); ahead > 0 {
		d.PromiseQuiet(id, base+off+sim.Time(int64(ahead)*cyc))
	}
}

// RunResult describes why a standalone run stopped.
type RunResult struct {
	Time    sim.Time // final simulated time
	Settled bool     // true if the machine quiesced (idle, no pending events)
}

// Run executes a loaded machine standalone (no links) until it
// quiesces or the time limit passes.  A zero limit means no limit.
func Run(m *Machine, limit sim.Time) RunResult {
	k := sim.NewKernel()
	r := NewRunner(k, m)
	r.Start()
	if limit > 0 {
		settled := k.RunUntil(limit)
		return RunResult{Time: k.Now(), Settled: settled}
	}
	k.Run()
	return RunResult{Time: k.Now(), Settled: true}
}
