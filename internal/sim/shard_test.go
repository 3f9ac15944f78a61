package sim

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// The tests here pin the semantics the parallel engine must preserve
// exactly: same-instant FIFO ordering across window barriers, the
// posted-cancel contract for events owned by another shard, and
// bounded runs whose limit lands in the middle of a window.  Every
// scenario is run at several worker counts and must produce an
// identical trace.

// withWorkers runs the scenario once per worker count and checks every
// run produces the same trace.  build returns the trace after running.
func withWorkers(t *testing.T, build func(workers int) []string) {
	t.Helper()
	want := build(1)
	for _, w := range []int{2, 4} {
		got := build(w)
		if len(got) != len(want) {
			t.Fatalf("workers=%d trace length %d != %d\nwant %v\ngot  %v", w, len(got), len(want), want, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d trace[%d] = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

// lonePorts gives n ports, each on a shard of its own, with every pair
// of shards wired at the coordinator's lookahead — the complete graph
// the scenarios here assume.
func lonePorts(c *Coordinator, n int) []*Port {
	ports := make([]*Port, n)
	for i := range ports {
		ports[i] = c.NewShard().NewPort()
	}
	wireAll(c)
	return ports
}

// wireAll wires every ordered pair of the coordinator's shards at one
// lookahead.
func wireAll(c *Coordinator) {
	for a := range c.Shards() {
		for b := range c.Shards() {
			if a != b {
				c.Wire(a, b, c.Lookahead())
			}
		}
	}
}

// TestShardSameInstantOrder: events due at one instant on one shard
// fire in the order they were scheduled, even when some were scheduled
// locally and others arrived through the mailbox from different source
// shards across a window barrier.  Mailbox releases are ordered by
// (time, source shard, source sequence), so the interleaving is a
// total order independent of workers.
func TestShardSameInstantOrder(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		ps := lonePorts(c, 3)
		a, b, d := ps[0], ps[1], ps[2]
		var trace []string
		at := 5 * L
		// Local events scheduled first get the lowest kernel sequence
		// numbers and must fire first.
		a.Schedule(at, func() { trace = append(trace, "a-local-0") })
		a.Schedule(at, func() { trace = append(trace, "a-local-1") })
		// Shards b and d each post to a at the same instant from inside
		// their first window; the release order must be b before d
		// (source shard order), after a's local events (scheduled
		// earlier, hence earlier kernel sequence).
		b.Schedule(L, func() { b.Post(a, at, Func(func() { trace = append(trace, "from-b") }), 0, 0) })
		d.Schedule(L, func() {
			d.Post(a, at, Func(func() { trace = append(trace, "from-d-0") }), 0, 0)
			d.Post(a, at, Func(func() { trace = append(trace, "from-d-1") }), 0, 0)
		})
		c.Run()
		return trace
	})
}

// TestShardCrossCancel: cancelling an event owned by another shard is
// a posted signal, not a retroactive revocation.  A cancel issued more
// than one lookahead before the event's due time lands in time and
// stops it; a cancel of an event that fires within the lookahead is a
// no-op, at any worker count.
func TestShardCrossCancel(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		ps := lonePorts(c, 2)
		a, b := ps[0], ps[1]
		var trace []string
		// Far event: due 10L out; b cancels at time L, the cancel is
		// released at 2L, well before the event.  Must not fire.
		far := a.Schedule(10*L, func() { trace = append(trace, "far-fired") })
		// Near event: due at 2L; b's cancel posted at L is released at
		// 2L, but the event is already in a's window when the cancel
		// arrives no earlier than its due time — it fires first and the
		// cancel is a no-op.
		near := a.Schedule(2*L, func() { trace = append(trace, "near-fired") })
		b.Schedule(L, func() {
			b.Cancel(far)
			b.Cancel(near)
		})
		c.Run()
		trace = append(trace, fmt.Sprintf("end@%v", c.Now()))
		return trace
	})
}

// TestShardRunUntilMidWindow: a bounded run whose limit falls between
// two events fires exactly the events at or before the limit, leaves
// the rest scheduled, parks every shard clock at the limit, and a
// continuation run picks up the remainder — the same contract a lone
// kernel's RunUntil has.
func TestShardRunUntilMidWindow(t *testing.T) {
	const L = Time(100)
	withWorkers(t, func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		ps := lonePorts(c, 2)
		a, b := ps[0], ps[1]
		// Each shard records its own firings (shards may execute
		// concurrently); the traces are merged by time afterwards —
		// every due time is distinct, so the merge is total.
		var aTrace, bTrace []string
		for i := Time(1); i <= 6; i++ {
			at := i * L
			a.Schedule(at, func() { aTrace = append(aTrace, fmt.Sprintf("a@%v", at)) })
			b.Schedule(at+L/2, func() { bTrace = append(bTrace, fmt.Sprintf("b@%v", at+L/2)) })
		}
		limit := 3*L + L/4 // between a's 3L event and b's 3.5L event
		if done := c.RunUntil(limit); done {
			t.Errorf("workers=%d: run drained below limit unexpectedly", workers)
		}
		nA, nB := len(aTrace), len(bTrace)
		if a.Now() != limit || b.Now() != limit {
			t.Errorf("workers=%d: clocks not parked at limit: a=%v b=%v", workers, a.Now(), b.Now())
		}
		if done := c.RunUntil(10 * L); !done {
			t.Errorf("workers=%d: continuation did not drain", workers)
		}
		trace := []string{
			fmt.Sprintf("paused: fired a=%d b=%d now=%v", nA, nB, limit),
			fmt.Sprintf("end@%v", c.Now()),
		}
		for i := 0; i < len(aTrace) || i < len(bTrace); i++ {
			if i < len(aTrace) {
				trace = append(trace, aTrace[i])
			}
			if i < len(bTrace) {
				trace = append(trace, bTrace[i])
			}
		}
		return trace
	})
}

// TestShardEventAtLimitFires: an event due exactly at the limit is
// inside the bounded run.
func TestShardEventAtLimitFires(t *testing.T) {
	const L = Time(100)
	c := NewCoordinator(L)
	ps := lonePorts(c, 2)
	a, b := ps[0], ps[1]
	fired := false
	a.Schedule(4*L, func() { fired = true })
	b.Schedule(5*L, func() {})
	c.RunUntil(4 * L)
	if !fired {
		t.Error("event at the limit did not fire")
	}
}

// TestPostNeedsWiring: horizons trust the wiring graph completely, so a
// cross-shard post closer than the wiring distance panics — between
// unwired shards, where the distance is infinite, and between shards
// two hops apart that are posted to at one hop's latency — while a
// post along a wire, or far enough down a path, is accepted.
func TestPostNeedsWiring(t *testing.T) {
	const L = Time(100)
	c := NewCoordinator(L)
	a := c.NewShard().NewPort()
	b := c.NewShard().NewPort()
	d := c.NewShard().NewPort()
	lone := c.NewShard().NewPort()
	// a - b - d in a chain; lone is wired to nothing.
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		c.Wire(e[0], e[1], L)
		c.Wire(e[1], e[0], L)
	}
	var got []string
	try := func(name string, dst *Port, at Time) {
		defer func() {
			if r := recover(); r != nil {
				got = append(got, name+": panic")
			}
		}()
		a.Post(dst, at, Func(func() {}), 0, 0)
		got = append(got, name+": ok")
	}
	a.Schedule(L, func() {
		now := a.Now()
		try("along the wire", b, now+L)
		try("unwired", lone, now+10*L)
		try("two hops at one hop", d, now+L)
		try("two hops at two hops", d, now+2*L)
	})
	c.Run()
	want := []string{
		"along the wire: ok",
		"unwired: panic",
		"two hops at one hop: panic",
		"two hops at two hops: ok",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("posts = %v, want %v", got, want)
	}
}

// TestPoolWindowsOfEverySize: the helper pool across consecutive
// bounded runs whose windows alternate between one active shard (run
// inline by the coordinator, with no wakeup sent) and more active
// shards than helpers (so wakeup tokens can outlive their window in
// the channel buffer).  The trace must match one worker's, and every
// run must leave no helper goroutine behind.
func TestPoolWindowsOfEverySize(t *testing.T) {
	const L = Time(100)
	const n = 8 // shards; four workers are the coordinator and three helpers
	const phases = 6
	phaseAt := func(ph int) Time { return Time(ph+1) * 10 * L }
	run := func(workers int) []string {
		c := NewCoordinator(L)
		c.SetWorkers(workers)
		ps := lonePorts(c, n)
		// One trace per shard: shards of one window may run concurrently.
		traces := make([][]string, n)
		note := func(i int, what string) {
			traces[i] = append(traces[i], fmt.Sprintf("%08d %d %s", int64(ps[i].Now()), i, what))
		}
		for ph := 0; ph < phases; ph++ {
			at := phaseAt(ph)
			if ph%2 == 0 {
				ps[0].Schedule(at, func() { note(0, "alone") })
				continue
			}
			// Every shard at once, then every shard again as the posts
			// land one lookahead later, then shard 0 alone.
			for i := range ps {
				ps[i].Schedule(at, func() {
					note(i, "all")
					dst := (i + 1) % n
					ps[i].Post(ps[dst], ps[i].Now()+L, Func(func() { note(dst, fmt.Sprintf("from %d", i)) }), 0, 0)
				})
			}
			ps[0].Schedule(at+3*L, func() { note(0, "alone after all") })
		}
		for ph := 0; ph < phases; ph++ {
			before := runtime.NumGoroutine()
			c.RunUntil(phaseAt(ph) + 5*L)
			// stop has waited for every helper to return; give the
			// runtime a moment to retire the goroutines themselves.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Fatalf("workers=%d phase %d: %d goroutines after RunUntil, %d before", workers, ph, got, before)
			}
		}
		var trace []string
		for _, tr := range traces {
			trace = append(trace, tr...)
		}
		sort.Strings(trace)
		return trace
	}
	want := run(1)
	if len(want) != 3*1+3*(2*n+1) {
		t.Fatalf("workers=1 trace has %d entries: %v", len(want), want)
	}
	got := run(4)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("workers=4 trace\n%v\nwant\n%v", got, want)
	}
}
