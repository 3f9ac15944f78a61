package core_test

import (
	"fmt"
	"maps"
	"testing"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/sim"
)

// commProgram builds a two-process program that passes one n-byte
// message over an internal channel: the parent starts a child, blocks
// inputting from channel W[3], and the child outputs from a static
// buffer.  Everything except the message length is identical across
// instances, so cycle differences isolate the communication charge.
func commProgram(n int) string {
	return fmt.Sprintf(`
	mint
	stl 3          -- channel word
	ldc 2
	stl 1
	ldpi cont
	stl 0
	ldc child-after
	ldlp -40
	startp
after:
	ajw -20
	ldpi bufin
	ldlp 23        -- channel W[3] seen from W-20
	ldc %d
	in
	ldlp 20
	endp
child:
	ldpi bufout
	ldlp 43        -- channel W[3] seen from W-40
	ldc %d
	out
	ldlp 40
	endp
cont:
	stopp
bufout:
	space 256
bufin:
	space 256
`, n, n)
}

// TestMessageCounters checks the communication counters for a single
// internal rendezvous.
func TestMessageCounters(t *testing.T) {
	m := runSrc(t, commProgram(16))
	st := m.Stats()
	if st.MessagesIn != 1 || st.MessagesOut != 1 {
		t.Errorf("messages = %d in / %d out, want 1/1", st.MessagesIn, st.MessagesOut)
	}
	if st.ExternalIn != 0 || st.ExternalOut != 0 {
		t.Errorf("external = %d in / %d out, want 0/0 for an internal channel",
			st.ExternalIn, st.ExternalOut)
	}
	// Only the completing side records the bytes moved.
	if st.BytesIn+st.BytesOut != 16 {
		t.Errorf("bytes = %d in + %d out, want 16 total", st.BytesIn, st.BytesOut)
	}
	if st.Enqueues == 0 {
		t.Error("starting the child should enqueue it")
	}
	if st.Deschedules == 0 {
		t.Error("blocking on the channel should deschedule")
	}
}

// TestChannelCostModel checks the paper's communication charge,
// max(24, 21 + 8n/wordlength) cycles (section 3.2.10): two runs that
// differ only in message length must differ by exactly the model's
// charge difference.  240 bytes also exercises the interruptible burn
// path for charges beyond the inline limit.
func TestChannelCostModel(t *testing.T) {
	small := runSrc(t, commProgram(16)).Stats().Cycles
	large := runSrc(t, commProgram(240)).Stats().Cycles
	want := uint64(isa.CommunicationCycles(240, 32) - isa.CommunicationCycles(16, 32))
	if large-small != want {
		t.Errorf("cycle delta = %d, want %d (model: %d vs %d cycles)",
			large-small, want,
			isa.CommunicationCycles(240, 32), isa.CommunicationCycles(16, 32))
	}
	// The blocked side's minimum charge means even a zero-length
	// exchange costs at least 24 cycles per side.
	if isa.CommunicationCycles(0, 32) != 24 {
		t.Errorf("CommunicationCycles(0) = %d, want 24", isa.CommunicationCycles(0, 32))
	}
}

// TestStatsAdd: folding one Stats into another must carry every
// counter, including the per-function array and the lazily allocated
// per-opcode map — aggregate views drop information otherwise.
func TestStatsAdd(t *testing.T) {
	a := core.Stats{
		Instructions:     10,
		InstructionBytes: 14,
		SingleByte:       8,
		Cycles:           100,
		Enqueues:         1,
		Deschedules:      2,
		Preemptions:      3,
		Timeslices:       4,
		MessagesIn:       5,
		MessagesOut:      6,
		BytesIn:          7,
		BytesOut:         8,
		ExternalIn:       9,
		ExternalOut:      10,
		CodeBytes:        32,
	}
	a.FunctionCounts[3] = 7
	b := core.Stats{Instructions: 5, Cycles: 50, CodeBytes: 16,
		OpCounts: map[uint16]uint64{0x2A: 3, 0x05: 1}}
	b.FunctionCounts[3] = 2
	b.FunctionCounts[15] = 1

	a.Add(b)
	if a.Instructions != 15 || a.Cycles != 150 || a.CodeBytes != 48 {
		t.Errorf("scalars: %+v", a)
	}
	if a.FunctionCounts[3] != 9 || a.FunctionCounts[15] != 1 {
		t.Errorf("function counts: %v", a.FunctionCounts)
	}
	// The destination had no OpCounts map; Add must allocate one
	// rather than dropping the tallies.
	if a.OpCounts[0x2A] != 3 || a.OpCounts[0x05] != 1 {
		t.Errorf("op counts: %v", a.OpCounts)
	}
	// Adding into an existing map accumulates.
	a.Add(core.Stats{OpCounts: map[uint16]uint64{0x2A: 2}})
	if a.OpCounts[0x2A] != 5 {
		t.Errorf("op counts after second add: %v", a.OpCounts)
	}
	// The source map must not be aliased.
	b.OpCounts[0x2A] = 99
	if a.OpCounts[0x2A] != 5 {
		t.Error("Add aliased the source OpCounts map")
	}
}

// TestStatsSnapshotIsolated checks that Stats returns a snapshot: an
// OpCounts map taken mid-run must not change as the machine goes on
// executing.
func TestStatsSnapshotIsolated(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	if err := m.Load(assemble(t, loopSource)); err != nil {
		t.Fatalf("load: %v", err)
	}
	for m.Stats().OpCounts == nil {
		if m.Step() == 0 {
			t.Fatal("program ended before executing an operation")
		}
	}
	snap := m.Stats()
	want := maps.Clone(snap.OpCounts)
	for m.Step() != 0 {
	}
	if !maps.Equal(snap.OpCounts, want) {
		t.Errorf("snapshot OpCounts changed as the machine ran on: %v, taken as %v", snap.OpCounts, want)
	}
	if maps.Equal(m.Stats().OpCounts, want) {
		t.Error("the machine executed no further operations; the test checks nothing")
	}
}

// TestOpCountsUndefinedOperation checks that an operation code beyond
// the defined set, which faults, is still counted exactly alongside
// the defined ones.
func TestOpCountsUndefinedOperation(t *testing.T) {
	m := core.MustNew(core.T424().WithMemory(64 * 1024))
	img := core.Image{
		// ldc 1; ldc 2; add; pfix 1; pfix 0; opr 0 (operation 0x100)
		Code:    []byte{0x41, 0x42, 0xF5, 0x21, 0x20, 0xF0},
		WsBelow: 16, WsAbove: 16,
	}
	if err := m.Load(img); err != nil {
		t.Fatalf("load: %v", err)
	}
	core.Run(m, sim.Millisecond)
	if m.Fault() == nil {
		t.Fatal("operation 0x100 did not fault")
	}
	want := map[uint16]uint64{uint16(isa.OpAdd): 1, 0x100: 1}
	if got := m.Stats().OpCounts; !maps.Equal(got, want) {
		t.Errorf("OpCounts = %v, want %v", got, want)
	}
}
