package core

import (
	"maps"

	"transputer/internal/isa"
)

// Stats aggregates the execution counters the paper's performance
// discussion rests on: instruction and cycle counts (MIPS), instruction
// length distribution (the "typically 80% single byte" claim), and
// scheduler activity.
type Stats struct {
	// Instructions is the number of completed instructions (prefix
	// sequences count as part of their final instruction).
	Instructions uint64
	// InstructionBytes is the total bytes of executed instructions,
	// including prefixes.
	InstructionBytes uint64
	// SingleByte counts executed instructions encoded in one byte.
	SingleByte uint64
	// Cycles is the total processor cycles consumed, including
	// scheduling charges.
	Cycles uint64
	// FunctionCounts tallies executed direct functions by code; prefix
	// bytes are counted under their own codes.
	FunctionCounts [16]uint64
	// OpCounts tallies executed indirect operations.
	OpCounts map[uint16]uint64

	// Scheduler activity.
	Enqueues    uint64
	Deschedules uint64
	Preemptions uint64
	Timeslices  uint64

	// Communication.
	MessagesIn  uint64
	MessagesOut uint64
	BytesIn     uint64
	BytesOut    uint64
	ExternalIn  uint64
	ExternalOut uint64

	// CodeBytes is the size of the loaded program image.
	CodeBytes int
}

// Add accumulates every counter of other into s, including the
// per-function and per-operation tallies; system-wide totals are built
// by folding node stats together with it.
func (s *Stats) Add(other Stats) {
	s.Instructions += other.Instructions
	s.InstructionBytes += other.InstructionBytes
	s.SingleByte += other.SingleByte
	s.Cycles += other.Cycles
	for i, c := range other.FunctionCounts {
		s.FunctionCounts[i] += c
	}
	if len(other.OpCounts) > 0 {
		if s.OpCounts == nil {
			s.OpCounts = make(map[uint16]uint64, len(other.OpCounts))
		}
		for op, c := range other.OpCounts {
			s.OpCounts[op] += c
		}
	}
	s.Enqueues += other.Enqueues
	s.Deschedules += other.Deschedules
	s.Preemptions += other.Preemptions
	s.Timeslices += other.Timeslices
	s.MessagesIn += other.MessagesIn
	s.MessagesOut += other.MessagesOut
	s.BytesIn += other.BytesIn
	s.BytesOut += other.BytesOut
	s.ExternalIn += other.ExternalIn
	s.ExternalOut += other.ExternalOut
	s.CodeBytes += other.CodeBytes
}

// SingleByteFraction returns the fraction of executed instructions that
// occupied a single byte.
func (s Stats) SingleByteFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.SingleByte) / float64(s.Instructions)
}

// MIPS returns the execution rate in millions of instructions per
// second for the given cycle time in nanoseconds.
func (s Stats) MIPS(cycleNs int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	seconds := float64(s.Cycles) * float64(cycleNs) * 1e-9
	return float64(s.Instructions) / seconds / 1e6
}

func (m *Machine) countInstr(bytes int, fn int) {
	m.stats.Instructions++
	m.stats.InstructionBytes += uint64(bytes)
	if bytes == 1 {
		m.stats.SingleByte++
	}
	m.stats.FunctionCounts[fn&0xF]++
}

// opSlots sizes the dense operation counters: one slot for every
// operation up to the highest the instruction set defines.
const opSlots = int(isa.OpTesthalterr) + 1

// countOp tallies one executed indirect operation.  The defined
// operations count in a fixed array; an undefined one beyond it, which
// only a faulting program executes, still counts exactly in a map made
// on first use.
func (m *Machine) countOp(op uint16) {
	if int(op) < opSlots {
		m.opCounts[op]++
		return
	}
	if m.opExtra == nil {
		m.opExtra = make(map[uint16]uint64)
	}
	m.opExtra[op]++
}

// opCountMap builds the OpCounts view of the operation counters: a
// fresh map, nil when no operation has executed.
func (m *Machine) opCountMap() map[uint16]uint64 {
	var counts map[uint16]uint64
	if len(m.opExtra) > 0 {
		counts = maps.Clone(m.opExtra)
	}
	for op, c := range m.opCounts {
		if c == 0 {
			continue
		}
		if counts == nil {
			counts = make(map[uint16]uint64)
		}
		counts[uint16(op)] = c
	}
	return counts
}
