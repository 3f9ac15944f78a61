package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("fired order %v, want [1 2 3]", got)
	}
	if k.Now() != 30 {
		t.Errorf("final time %v, want 30", k.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

// wordLog is a Receiver recording the argument words it is handed.
type wordLog [][2]uint64

func (l *wordLog) Receive(a, b uint64) { *l = append(*l, [2]uint64{a, b}) }

// TestDeliveryReceiver: a keyed delivery hands its receiver the two
// words it was scheduled with, runs before a same-instant local event,
// and orders among same-instant deliveries by key.
func TestDeliveryReceiver(t *testing.T) {
	k := NewKernel()
	var log wordLog
	k.Schedule(5, func() { log = append(log, [2]uint64{0, 0}) })
	k.ScheduleDelivery(5, 2, &log, 3, 4)
	k.ScheduleDelivery(5, 1, &log, 1, 2)
	k.Run()
	want := wordLog{{1, 2}, {3, 4}, {0, 0}}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	id := k.Schedule(10, func() { fired = true })
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	k.Cancel(id)
	if k.Pending() != 0 {
		t.Errorf("Pending after cancel = %d, want 0", k.Pending())
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	k.Cancel(id) // double cancel is a no-op
	k.Cancel(0)  // zero ID is a no-op
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.After(7, tick)
		}
	}
	k.After(7, tick)
	k.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if k.Now() != 35 {
		t.Errorf("final time = %v, want 35", k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		k.Schedule(at, func() { got = append(got, at) })
	}
	drained := k.RunUntil(20)
	if drained {
		t.Error("RunUntil(20) reported drained with an event at 25 pending")
	}
	if len(got) != 2 {
		t.Errorf("fired %v, want two events", got)
	}
	if k.Now() != 20 {
		t.Errorf("Now = %v, want 20 (advanced to limit)", k.Now())
	}
	if !k.RunUntil(100) {
		t.Error("RunUntil(100) should drain")
	}
	if len(got) != 3 {
		t.Errorf("fired %v, want three events", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		k.Schedule(5, func() {})
	})
	k.Run()
}

// TestHeapProperty drives the kernel with random schedules and checks
// events fire in nondecreasing time order.
func TestHeapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var times []Time
		var fired []Time
		for i := 0; i < int(n)+1; i++ {
			at := Time(rng.Intn(1000))
			times = append(times, at)
			at2 := at
			k.Schedule(at, func() { fired = append(fired, at2) })
		}
		k.Run()
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		if len(fired) != len(times) {
			return false
		}
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:                "500ns",
		6 * Microsecond:    "6.000µs",
		1300 * Microsecond: "1.300ms",
		2 * Second:         "2.000s",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(v), got, want)
		}
	}
}
