package core

import "transputer/internal/isa"

// The predecoded block cache.
//
// I1 instructions are position independent and compiler output is
// static straight-line code (paper, 3.2), so the result of fetching and
// decoding a byte sequence — the final function, its accumulated prefix
// operand, its length and its fixed cycle cost — never changes unless
// the bytes themselves are overwritten.  The cache translates
// straight-line runs at first execution into arrays of records keyed by
// the instruction pointer; the hot path then dispatches on records
// instead of re-fetching bytes and re-walking pfix/nfix chains.
//
// A block terminates at anything that can transfer control or touch the
// scheduler: j, cj, call, and every opr but the pure ones.  The records
// before the terminator are "pure": they read and write memory and the
// evaluation stack only, with a fully fixed cycle cost, which is what
// lets the runner promise the simulation coordinator a quiet horizon
// (see SendLookaheadCycles).
//
// Blocks are chained: each caches the blocks its final record last led
// to, so moving the execution cursor from one block to the next is a
// pointer comparison rather than a lookup by instruction pointer.
// Machine.StepRun runs pure records in a tight loop and follows the
// chain through cj, and through j whenever the jump's timeslice check
// cannot switch processes, so a whole loop can execute in one batch.
//
// Self-modifying code still works: every memory write is filtered
// against the cached code range and overlapping blocks are invalidated
// before the write's effect can be observed, including a store that
// rewrites a later instruction of the block currently executing.  A
// chained successor is only followed while it is valid and starts at
// the instruction pointer.

// blockRec is one predecoded instruction: the final function with its
// fully accumulated prefix operand.
type blockRec struct {
	addr    uint64 // address of the first byte, prefixes included
	end     uint64 // address of the next instruction
	operand uint64
	pre     uint16 // prefix cycles, plus the no-fetch-buffer penalty
	cycles  uint16 // pre + the instruction's minimum base cost
	bytes   uint8
	fn      isa.Function
	pure    bool // pure compute: no control flow, scheduler or clock
	term    bool // ends its block (j, cj, call, or a non-pure opr)
}

// block is a decoded straight-line run.
type block struct {
	startAddr        uint64 // machine address of recs[0]
	startOff, endOff uint64 // memory offsets covered: [startOff, endOff)
	recs             []blockRec
	// quiet[i] is a lower bound on the cycles from the start of record i
	// to the start of the first instruction that could emit externally
	// visible activity (an opr): the sum of the fixed minimum costs of
	// records i.. up to and including a trailing j/cj/call, and up to but
	// excluding a terminating opr.
	quiet []int32
	valid bool
	// succ caches the blocks the final record last led to, most recent
	// first: the two arms of a cj, or a j or call target.  A slot is
	// only used while its block is valid and starts at the instruction
	// pointer.
	succ [2]*block
}

const (
	// blockPageShift sizes the invalidation pages: writes are mapped to
	// 256-byte pages, each holding the blocks that overlap it.
	blockPageShift = 8
	// maxBlockRecs bounds one block.
	maxBlockRecs = 64
	// maxBlockBytes bounds one record's prefix chain; longer chains
	// (never emitted by the assembler or compiler) fall back to the
	// interpreted path.
	maxRecBytes = 16
	// maxBlocks bounds the cache; pathological self-modifying programs
	// flush wholesale instead of growing without bound.
	maxBlocks = 4096
)

// blockCache holds a machine's decoded blocks and the index needed to
// invalidate them precisely on writes.
type blockCache struct {
	blocks map[uint64]*block   // start address -> block
	pages  map[uint64][]*block // page index -> blocks overlapping it
	lo, hi uint64              // union of covered offsets, the write filter
}

func (m *Machine) bcache() *blockCache {
	if m.bc == nil {
		m.bc = &blockCache{
			blocks: make(map[uint64]*block),
			pages:  make(map[uint64][]*block),
			lo:     ^uint64(0),
		}
	}
	return m.bc
}

// flushBlocks drops every cached block: program load or cache overflow.
// Writes no longer reach the dropped blocks, but nothing reaches them
// either: the cursor is cleared, and a block's successors are filled
// only from the cache current at the time, so dropped blocks are linked
// only to one another.
func (m *Machine) flushBlocks() {
	m.bc = nil
	m.curBlock = nil
}

// SetBlockCache turns the predecoded block cache on or off at run
// time.  Like Config.NoBlockCache this is purely a simulator-
// performance switch: traces, statistics and cycle accounting are
// identical either way.  Turning the cache off also drops every
// cached block.
func (m *Machine) SetBlockCache(on bool) {
	m.cfg.NoBlockCache = !on
	if !on {
		m.flushBlocks()
	}
}

// noteCodeWrite invalidates every cached block overlapping the written
// byte range [off, off+n).  Callers have already tested the range
// against the cache's lo/hi filter.
func (m *Machine) noteCodeWrite(off, n uint64) {
	bc := m.bc
	var victims []*block
	last := (off + n - 1) >> blockPageShift
	for p := off >> blockPageShift; p <= last; p++ {
		for _, b := range bc.pages[p] {
			if b.valid && b.startOff < off+n && off < b.endOff {
				b.valid = false
				victims = append(victims, b)
			}
		}
	}
	for _, b := range victims {
		bc.remove(b)
	}
}

// remove unlinks an invalidated block from the lookup map and the page
// lists.
func (bc *blockCache) remove(b *block) {
	if bc.blocks[b.startAddr] == b {
		delete(bc.blocks, b.startAddr)
	}
	last := (b.endOff - 1) >> blockPageShift
	for p := b.startOff >> blockPageShift; p <= last; p++ {
		list := bc.pages[p]
		for i, x := range list {
			if x == b {
				bc.pages[p] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
}

// pureOp reports whether an indirect operation is pure compute — no
// control transfer, no scheduler, channel, timer or clock interaction,
// registers and ordinary memory only — and its minimum cycle cost
// (data-dependent operations report their floor; it is used for quiet
// bounds, never for accounting, which always charges the executed
// cost).  Everything communication- or scheduling-shaped is impure and
// terminates its block, as do the rare scheduler-register and
// workspace-switch operations, excluded out of caution: exclusion only
// costs block length, inclusion would risk correctness.
func pureOp(op isa.Op, wordBits int) (minCycles int, pure bool) {
	switch op {
	case isa.OpRev, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem,
		isa.OpSum, isa.OpDiff, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNot,
		isa.OpGt, isa.OpMint,
		isa.OpLadd, isa.OpLsub, isa.OpLsum, isa.OpLdiff, isa.OpLmul,
		isa.OpLdiv, isa.OpXdble, isa.OpCsngl, isa.OpXword, isa.OpCword,
		isa.OpBsub, isa.OpWsub, isa.OpBcnt, isa.OpWcnt, isa.OpLb, isa.OpSb,
		isa.OpLdpi, isa.OpCsub0, isa.OpCcnt1, isa.OpLdpri,
		isa.OpSeterr, isa.OpTesterr, isa.OpClrhalterr, isa.OpSethalterr,
		isa.OpTesthalterr:
		c, _ := isa.OpCycles(op, wordBits)
		return c, true
	case isa.OpShl, isa.OpShr:
		return isa.ShiftCycles(0), true
	case isa.OpLshl, isa.OpLshr:
		return isa.LongShiftCycles(0), true
	case isa.OpProd:
		return isa.ProdCycles(0), true
	case isa.OpNorm:
		return isa.NormCycles(0), true
	}
	return 0, false
}

// decodeBlock translates the straight-line byte sequence starting at
// iptr.  It returns nil when nothing could be decoded (the first
// instruction runs off memory or has a pathological prefix chain); the
// interpreted path then reproduces the fault exactly.
func (m *Machine) decodeBlock(iptr uint64) *block {
	bc := m.bcache()
	if len(bc.blocks) >= maxBlocks {
		m.flushBlocks()
		bc = m.bcache()
	}
	memLen := uint64(len(m.mem))
	fetchPenalty := 0
	if m.cfg.NoFetchBuffer {
		// Ablation: without the fetch buffer each instruction byte costs
		// an extra memory cycle (charged per instruction, like execOne).
		fetchPenalty = 1
	}
	b := &block{startAddr: iptr, startOff: m.offset(iptr), valid: true}
	addr := iptr
	prevOff := b.startOff
	for len(b.recs) < maxBlockRecs {
		rec, ok := m.decodeRec(addr, memLen, fetchPenalty)
		if !ok {
			break
		}
		endOff := m.offset(rec.end)
		if endOff <= prevOff {
			break // wrapped around the address space; not cacheable
		}
		prevOff = endOff
		b.recs = append(b.recs, rec)
		addr = rec.end
		if rec.term {
			break
		}
	}
	if len(b.recs) == 0 {
		return nil
	}
	b.endOff = prevOff
	b.quiet = make([]int32, len(b.recs))
	quiet := int32(0)
	for i := len(b.recs) - 1; i >= 0; i-- {
		r := &b.recs[i]
		switch {
		case r.fn == isa.FnOpr && !r.pure:
			// A communication/scheduling operation could act externally
			// the moment it starts.
			quiet = 0
		case storeRec(r):
			// A store can rewrite upcoming code (self-modification), in
			// which case the decoded suffix no longer predicts what
			// executes — but the records before a store cannot, so a
			// bound through the store itself is still sound.
			quiet = int32(r.cycles)
		default:
			quiet += int32(r.cycles)
		}
		b.quiet[i] = quiet
	}
	if old := bc.blocks[iptr]; old != nil {
		old.valid = false
		bc.remove(old)
	}
	bc.blocks[iptr] = b
	last := (b.endOff - 1) >> blockPageShift
	for p := b.startOff >> blockPageShift; p <= last; p++ {
		bc.pages[p] = append(bc.pages[p], b)
	}
	if b.startOff < bc.lo {
		bc.lo = b.startOff
	}
	if b.endOff > bc.hi {
		bc.hi = b.endOff
	}
	return b
}

// storeRec reports whether a record writes data memory.  Call also
// writes memory (the new call frame) but is always a block terminator,
// so nothing is predicted beyond it.
func storeRec(r *blockRec) bool {
	return r.fn == isa.FnStl || r.fn == isa.FnStnl ||
		(r.fn == isa.FnOpr && isa.Op(r.operand) == isa.OpSb)
}

// decodeRec decodes a single instruction (prefix chain plus final byte)
// at addr without side effects.  ok is false when the bytes run off
// implemented memory — execution must take the interpreted path so the
// fetch fault fires exactly as before.
func (m *Machine) decodeRec(addr, memLen uint64, fetchPenalty int) (blockRec, bool) {
	var oreg uint64
	pre := 0
	nbytes := 0
	a := addr
	for nbytes < maxRecBytes {
		off := m.offset(a)
		if off >= memLen {
			return blockRec{}, false
		}
		bv := m.mem[off]
		a = (a + 1) & m.mask
		nbytes++
		fn := isa.Function(bv >> 4)
		data := uint64(bv & 0xF)
		switch fn {
		case isa.FnPfix:
			oreg = (oreg | data) << 4 & m.mask
			pre += isa.CyclesPerPrefix
		case isa.FnNfix:
			oreg = ^(oreg | data) << 4 & m.mask
			pre += isa.CyclesPerPrefix
		default:
			operand := (oreg | data) & m.mask
			preTotal := pre + nbytes*fetchPenalty
			minC := isa.FunctionCycles(fn)
			var pure, term bool
			switch fn {
			case isa.FnJ, isa.FnCj, isa.FnCall:
				term = true
			case isa.FnOpr:
				minC, pure = pureOp(isa.Op(operand), m.wordBits)
				term = !pure
			default:
				pure = true // ldlp ldnl ldc ldnlp ldl adc ajw eqc stl stnl
			}
			return blockRec{
				addr:    addr,
				end:     a,
				operand: operand,
				pre:     uint16(preTotal),
				cycles:  uint16(preTotal + minC),
				bytes:   uint8(nbytes),
				fn:      fn,
				pure:    pure,
				term:    term,
			}, true
		}
	}
	return blockRec{}, false
}

// lookupBlock returns the cached (or freshly decoded) block starting at
// iptr.
func (m *Machine) lookupBlock(iptr uint64) *block {
	if m.bc != nil {
		if b := m.bc.blocks[iptr]; b != nil && b.valid {
			return b
		}
	}
	return m.decodeBlock(iptr)
}

// nextBlock returns the block at the instruction pointer after b's
// final record ran, through b's successor cache, or nil when the
// machine has no current process to chain for (halted, idle, or a
// pending prefix) or nothing there can be decoded.  Its callers run
// only with the cache on.
func (m *Machine) nextBlock(b *block) *block {
	if m.halted || m.Oreg != 0 || m.Wdesc == m.notProcess() {
		return nil
	}
	for _, s := range b.succ {
		if s != nil && s.valid && s.startAddr == m.Iptr {
			return s
		}
	}
	s := m.lookupBlock(m.Iptr)
	if s != nil {
		b.succ[0], b.succ[1] = s, b.succ[0]
	}
	return s
}

// execRec dispatches one predecoded record, reproducing the interpreted
// path byte for byte: instruction counting, tracing, the fetch-buffer
// ablation charge and the cycle total are all identical.
func (m *Machine) execRec(b *block, idx int) int {
	rec := &b.recs[idx]
	m.Iptr = rec.end
	m.countInstr(int(rec.bytes), int(rec.fn))
	if m.trace != nil {
		m.trace(TraceEvent{
			Time: m.now(),
			Addr: rec.addr, Wdesc: m.Wdesc,
			Areg: m.Areg, Breg: m.Breg, Creg: m.Creg,
			Fn: rec.fn, Operand: rec.operand, Cycles: m.stats.Cycles,
		})
	}
	cycles := int(rec.pre) + m.execFunction(rec.fn, rec.operand)
	switch {
	case idx+1 == len(b.recs):
		m.curBlock, m.curIdx = m.nextBlock(b), 0
	case b.valid:
		m.curBlock, m.curIdx = b, idx+1
	default:
		m.curBlock = nil
	}
	return cycles
}

// SendLookaheadCycles returns a lower bound on the processor cycles
// that must elapse before the machine could emit externally visible
// activity (start or acknowledge a link transfer), or 0 when no bound
// is known.  The bound is read off the predecoded block at the current
// instruction pointer: the fixed minimum costs of the instructions
// before the next opr.  The parallel engine turns it into a send
// promise that extends neighbouring shards' windows (see internal/sim).
func (m *Machine) SendLookaheadCycles() int {
	if m.cfg.NoBlockCache || m.halted || m.longOp != nil || m.preemptPending ||
		m.pendingSwitchCycles != 0 || m.Oreg != 0 || m.Wdesc == m.notProcess() {
		return 0
	}
	b, idx := m.curBlock, m.curIdx
	if b == nil || !b.valid || idx >= len(b.recs) || b.recs[idx].addr != m.Iptr {
		if m.bc == nil {
			return 0
		}
		b = m.bc.blocks[m.Iptr]
		if b == nil || !b.valid {
			return 0
		}
		idx = 0
	}
	return int(b.quiet[idx])
}

// batchable reports whether StepRun may execute rec.  Pure records and
// cj cannot schedule, deschedule, communicate or observe time.  A j can
// switch processes at its timeslice check, so it joins the batch only
// when the check is certain to keep the current process: a
// high-priority process, timeslicing off, a slice not yet used up, or
// no other low-priority process to switch to.
func (m *Machine) batchable(rec *blockRec) bool {
	switch {
	case rec.pure, rec.fn == isa.FnCj:
		return true
	case rec.fn == isa.FnJ:
		return m.CurrentPriority() != PriorityLow || m.cfg.TimesliceCycles <= 0 ||
			m.timesliceCount < m.cfg.TimesliceCycles || m.Fptr[PriorityLow] == m.notProcess()
	}
	return false
}

// StepRun executes a run of consecutive batchable predecoded records
// (see batchable) as one batch, following the chained successor at
// each block end, bounded so that every record after the first starts
// strictly before maxNs of simulated time has elapsed — exactly the
// instructions Step-by-Step execution would have run against the same
// bound.  It returns the total cycles consumed and the cycles of the
// last record (so a caller can reconstruct the last instruction's start
// time); a zero total means the fast path does not apply and the caller
// must use Step.  Batchable records cannot schedule, deschedule,
// communicate or observe time, so executing them without touching the
// clock is invisible; cycle accounting still happens per record.
func (m *Machine) StepRun(maxNs int64) (total, last int) {
	if m.curBlock == nil || m.halted || m.trace != nil ||
		m.pendingSwitchCycles != 0 || m.preemptPending || m.longOp != nil ||
		m.Oreg != 0 || m.Wdesc == m.notProcess() {
		return 0, 0
	}
	b, idx := m.curBlock, m.curIdx
	if !b.valid || idx >= len(b.recs) || b.recs[idx].addr != m.Iptr || !m.batchable(&b.recs[idx]) {
		return 0, 0
	}
	cycleNs := int64(m.cfg.CycleNs)
	for {
		rec := &b.recs[idx]
		m.Iptr = rec.end
		m.countInstr(int(rec.bytes), int(rec.fn))
		c := int(rec.pre) + m.execFunction(rec.fn, rec.operand)
		m.account(c)
		total += c
		last = c
		idx++
		if idx == len(b.recs) {
			if b = m.nextBlock(b); b == nil {
				break
			}
			idx = 0
		} else if m.halted || !b.valid {
			b = nil // memory fault, halt-on-error, or self-modified block
			break
		}
		if !m.batchable(&b.recs[idx]) || int64(total)*cycleNs >= maxNs {
			break
		}
	}
	m.curBlock, m.curIdx = b, idx
	return total, last
}
