package network_test

import (
	"bytes"
	"testing"

	"transputer/internal/core"
	"transputer/internal/network"
	"transputer/internal/sim"
)

// Conformance across the protocol stack's configurations: the same
// transfer scenario — one node streams a known message to its peer
// over one wire — must deliver byte-identical data through the raw
// protocol, the stop-and-wait ablation, the error-detecting mode, and
// a virtual-channel multiplexed link; and every configuration must be
// deterministic across worker counts and placements, completion
// instant included.

type xferOutcome struct {
	got  []byte
	done sim.Time
}

// fusedPair is the placement that puts both nodes on one shard.
var fusedPair = [][]string{{"a", "b"}}

// stackPair builds a two-node system wired a.0 <-> b.1, with the given
// fusion groups (nil: each node on its own shard).
func stackPair(t *testing.T, workers int, groups [][]string, reliable bool) (*network.System, *network.Node, *network.Node) {
	t.Helper()
	s := network.NewSystem()
	if workers > 0 {
		s.SetWorkers(workers)
	}
	if err := s.SetPlacement(groups); err != nil {
		t.Fatal(err)
	}
	c := core.T424().WithMemory(64 * 1024)
	a := s.MustAddTransputer("a", c)
	b := s.MustAddTransputer("b", c)
	s.MustConnect(a, 0, b, 1)
	if reliable {
		s.SetLinkMode(network.LinkMode{Reliable: true})
	}
	return s, a, b
}

// transferRaw streams the payload as one raw byte stream.
func transferRaw(t *testing.T, workers int, groups [][]string, payload []byte, stopwait, reliable bool) xferOutcome {
	t.Helper()
	s, a, b := stackPair(t, workers, groups, reliable)
	if stopwait {
		a.Engine.SetStopAndWait(true)
		b.Engine.SetStopAndWait(true)
	}
	var out xferOutcome
	b.Clock().Schedule(sim.Microsecond, func() {
		b.Engine.RecvRaw(1, len(payload), func(d []byte) {
			out.got = d
			out.done = b.Clock().Now()
		})
	})
	a.Clock().Schedule(2*sim.Microsecond, func() {
		a.Engine.SendRaw(0, payload, nil)
	})
	s.Run(0)
	return out
}

// transferVC streams the payload as n equal strips, one per virtual
// channel, reassembled by vchan index at the receiver.
func transferVC(t *testing.T, workers int, groups [][]string, payload []byte, n int) xferOutcome {
	t.Helper()
	s, a, b := stackPair(t, workers, groups, false)
	if err := s.EnableVChans(a, 0, n); err != nil {
		t.Fatal(err)
	}
	strip := len(payload) / n
	got := make([]byte, len(payload))
	var out xferOutcome
	left := n
	b.Clock().Schedule(sim.Microsecond, func() {
		for vc := 0; vc < n; vc++ {
			vc := vc
			b.Engine.RecvVC(1, vc, strip, func(d []byte) {
				copy(got[vc*strip:], d)
				left--
				if left == 0 {
					out.got = got
					out.done = b.Clock().Now()
				}
			})
		}
	})
	a.Clock().Schedule(2*sim.Microsecond, func() {
		for vc := 0; vc < n; vc++ {
			a.Engine.SendVC(0, vc, payload[vc*strip:(vc+1)*strip], nil)
		}
	})
	s.Run(0)
	return out
}

// TestProtocolStackConformance is the table: every configuration
// delivers the identical bytes, at an instant independent of the
// worker count and of whether the two nodes share a shard — the fused
// pair carries every frame kind (data, acknowledge, and in the
// error-detecting mode the CRC frames) on the in-kernel delivery path.
func TestProtocolStackConformance(t *testing.T) {
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	configs := []struct {
		name string
		run  func(workers int, groups [][]string) xferOutcome
	}{
		{"raw", func(w int, g [][]string) xferOutcome { return transferRaw(t, w, g, payload, false, false) }},
		{"stopwait", func(w int, g [][]string) xferOutcome { return transferRaw(t, w, g, payload, true, false) }},
		{"reliable", func(w int, g [][]string) xferOutcome { return transferRaw(t, w, g, payload, false, true) }},
		{"vchan8", func(w int, g [][]string) xferOutcome { return transferVC(t, w, g, payload, 8) }},
	}
	variants := []struct {
		workers int
		groups  [][]string
	}{{4, nil}, {1, fusedPair}, {4, fusedPair}}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			one := c.run(1, nil)
			if !bytes.Equal(one.got, payload) {
				t.Fatalf("delivered %d bytes differ from the sent message", len(one.got))
			}
			if one.done == 0 {
				t.Fatal("transfer never completed")
			}
			for _, v := range variants {
				got := c.run(v.workers, v.groups)
				if !bytes.Equal(one.got, got.got) || one.done != got.done {
					t.Fatalf("workers %d, placement %v changed the outcome: %d bytes at %v, want %d bytes at %v",
						v.workers, v.groups, len(got.got), got.done, len(one.got), one.done)
				}
			}
		})
	}
}

// TestWireAllocsPerFrame guards the per-frame cost of a link: once a
// pair is built, a longer message must not cost more allocations,
// whether the two nodes sit on separate shards (frames cross the
// barrier mailbox) or share one (frames go straight into the far
// kernel).
func TestWireAllocsPerFrame(t *testing.T) {
	for _, p := range []struct {
		name   string
		groups [][]string
	}{{"unfused", nil}, {"fused", fusedPair}} {
		t.Run(p.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				payload := make([]byte, n)
				if out := transferRaw(t, 1, p.groups, payload, false, false); len(out.got) != n {
					t.Fatalf("%d-byte transfer delivered %d bytes", n, len(out.got))
				}
				return testing.AllocsPerRun(5, func() { transferRaw(t, 1, p.groups, payload, false, false) })
			}
			short, long := allocs(256), allocs(1024)
			if long > short {
				t.Errorf("1024-byte message cost %.0f allocations, 256-byte %.0f: %.2f per extra byte",
					long, short, (long-short)/768)
			}
		})
	}
}
