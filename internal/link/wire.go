// Wire scheduler — the bottom layer of the protocol stack.
//
// A wire is one one-directional signal line: a serializer that clocks
// frames out at bit rate, gives acknowledges priority over data (so a
// long data stream in one direction cannot starve the acknowledges of
// the reverse channel), consults the fault-injection hook once per
// frame, and carries deliveries to the receiving end — synchronously
// when both ends share a clock domain, posted to the far port with
// propagation latency when they do not.  Everything above this
// layer deals in whole packets; only this file knows about bit times,
// fault actions and shard crossings.
//
// A frame carries no callbacks: its kind says what it does.  The wire
// knows its three fixed ends — the sending half and the far end's two
// halves — and dispatches each arrival to them by kind, whether it
// runs synchronously or is posted to the far end's port as a typed
// delivery (see Receive).
package link

import (
	"transputer/internal/probe"
	"transputer/internal/sim"
)

// packetKind distinguishes the frames multiplexed down a signal line;
// it fixes a frame's length and which half handles its arrival.
type packetKind uint8

const (
	pktData    packetKind = iota // paper-protocol data byte
	pktRelData                   // error-detecting data byte: seq bit and CRC trailer
	pktAck                       // paper-protocol acknowledge
	pktRelAck                    // error-detecting acknowledge echoing the seq bit
	pktNak                       // error-detecting negative acknowledge
	pktBeat                      // liveness probe
)

// kindBits is each kind's length in bit times.
var kindBits = [...]int64{
	pktData:    DataBits,
	pktRelData: RelDataBits,
	pktAck:     AckBits,
	pktRelAck:  RelAckBits,
	pktNak:     NakBits,
	pktBeat:    BeatBits,
}

// isData reports a data frame, as opposed to a control frame
// (acknowledge, NAK or beat).
func (k packetKind) isData() bool { return k == pktData || k == pktRelData }

// packet is one frame queued on a wire.  The sender hears that a data
// frame's bits are out even when a fault drops it — transmitting
// hardware cannot tell its bits were lost — while the receiver sees
// nothing of a dropped frame or one on a severed wire.
type packet struct {
	kind    packetKind
	payload byte   // data byte (pktData, pktRelData)
	seq     byte   // sequence bit (error-detecting mode)
	crc     byte   // check trailer (error-detecting mode)
	flow    uint64 // probe flow identity carried across the wire; 0 untraced
	retrans bool   // a resend of a byte already counted as goodput
}

// A posted frame travels as its flow plus one word packing the fields
// receivers read: kind, payload, seq and crc in the low four bytes,
// and startBit marking the reception-start signal of a pktData frame
// rather than its completion.
const startBit = 1 << 32

func (p packet) word() uint64 {
	return uint64(p.kind) | uint64(p.payload)<<8 | uint64(p.seq)<<16 | uint64(p.crc)<<24
}

func unpack(flow, word uint64) packet {
	return packet{kind: packetKind(word), payload: byte(word >> 8), seq: byte(word >> 16),
		crc: byte(word >> 24), flow: flow}
}

// FaultAction describes what an injected fault does to one packet.
// The zero value leaves the packet untouched.
type FaultAction struct {
	// Drop loses the packet in transit: the sender still clocks the bits
	// out, but the receiver never sees them.
	Drop bool
	// Corrupt is an XOR mask applied to a data packet's payload.
	Corrupt byte
	// Delay holds the wire for extra time before the bits go out.
	Delay sim.Time
}

// FaultHook is consulted once per packet as it starts transmission on a
// wire; isCtl reports a control packet (acknowledge or NAK) rather than
// a data byte.  Hooks are installed by the fault-injection subsystem
// and must be deterministic for a given call sequence.
type FaultHook func(isCtl bool) FaultAction

// rxGate is the receiver-side cut detector for a posted wire: it is
// owned (read and written) by the receiving port only, so a sever can
// kill in-flight packets without touching sender state.
type rxGate struct {
	severed bool
}

// wire is a one-directional signal line.  A wire lives in the sending
// engine's clock domain; when the receiver is on another port,
// deliveries travel through post with prop latency instead of running
// synchronously.
type wire struct {
	k     sim.Clock
	bitNs int64
	busy  bool
	// The two priority queues are head-indexed rings over reusable
	// backing arrays: a busy wire queues and drains a packet per frame,
	// and popping by reslicing would force the next append to
	// reallocate every time.
	acks     []packet // pending acknowledges and naks (sent first)
	ackHead  int
	data     []packet // pending data bytes
	dataHead int
	stats    WireStats

	// tx is the half whose data this wire carries; rxIn and rxOut are
	// the far end's halves — rxIn takes data and beats, rxOut the
	// acknowledges and NAKs answering its own data.  All three are
	// fixed when the wire is connected.
	tx    *outHalf
	rxIn  *inHalf
	rxOut *outHalf

	// post and prop are set when the receiving end lives on another
	// port: arrivals are posted to it, the wire itself as receiver,
	// with prop propagation delay (the coordinator's conservative
	// lookahead).  rx is then the receiver-owned cut gate.
	post func(at sim.Time, r sim.Receiver, a, b uint64)
	prop sim.Time
	rx   *rxGate

	// cur is the frame currently on the wire and curDropped whether a
	// fault lost it; txDone is the cached frame-completion callback.
	// Only one frame is in flight per wire at a time (busy), so the
	// in-flight state lives here instead of in a per-frame closure —
	// the alternative allocates a packet-sized capture every frame.
	cur        packet
	curDropped bool
	txDone     func()

	// hook, when non-nil, injects faults into this wire's traffic.
	hook FaultHook
	// severed marks a cut wire: nothing queued or in flight is ever
	// delivered after the cut.
	severed bool

	// owner and link attribute this wire's traffic to the engine whose
	// outgoing signal line it is, for probe events.  Wires driven by a
	// host end have no owner and publish nothing.
	owner *Engine
	link  int
}

// queueEmpty reports whether nothing is waiting behind the frame (if
// any) currently on the wire.
func (w *wire) queueEmpty() bool {
	return w.ackHead == len(w.acks) && w.dataHead == len(w.data)
}

// clearQueues discards everything queued but not yet transmitted.
func (w *wire) clearQueues() {
	w.acks, w.ackHead = nil, 0
	w.data, w.dataHead = nil, 0
}

func (w *wire) send(p packet) {
	if !p.kind.isData() {
		if w.ackHead == len(w.acks) {
			w.acks, w.ackHead = w.acks[:0], 0
		}
		w.acks = append(w.acks, p)
	} else {
		if w.dataHead == len(w.data) {
			w.data, w.dataHead = w.data[:0], 0
		}
		w.data = append(w.data, p)
	}
	if !w.busy {
		w.transmitNext()
	}
}

// emit publishes a probe event attributed to this wire's owning engine,
// if any.
func (w *wire) emit(ev probe.Event) {
	if w.owner != nil && w.owner.bus != nil {
		ev.Link = w.link
		w.owner.emit(ev)
	}
}

func (w *wire) transmitNext() {
	var p packet
	switch {
	case w.ackHead < len(w.acks):
		p = w.acks[w.ackHead]
		w.ackHead++
	case w.dataHead < len(w.data):
		p = w.data[w.dataHead]
		w.dataHead++
	default:
		w.busy = false
		return
	}
	w.busy = true
	isCtl := !p.kind.isData()
	var act FaultAction
	if w.hook != nil {
		act = w.hook(isCtl)
	}
	dur := kindBits[p.kind]*w.bitNs + int64(act.Delay)
	w.stats.BusyNs += dur
	switch {
	case p.kind == pktAck || p.kind == pktRelAck:
		w.stats.Acks++
	case p.kind == pktNak:
		w.stats.Naks++
	case p.kind == pktBeat:
		w.stats.Beats++
	case p.retrans:
		w.stats.Retransmits++
	default:
		w.stats.DataBytes++
	}
	w.emit(probe.Event{Kind: probe.WirePacket,
		Ack: isCtl, Bytes: boolByte(!isCtl), Dur: sim.Time(dur), Flow: p.flow})
	if act.Delay > 0 {
		w.emit(probe.Event{Kind: probe.FaultDelay, Ack: isCtl, Dur: act.Delay, Flow: p.flow})
	}
	if act.Corrupt != 0 && !isCtl {
		p.payload ^= act.Corrupt
		w.emit(probe.Event{Kind: probe.FaultCorrupt, Arg: int64(act.Corrupt), Flow: p.flow})
	}
	dropped := act.Drop || w.severed
	if act.Drop && !w.severed {
		w.emit(probe.Event{Kind: probe.FaultDrop, Ack: isCtl, Flow: p.flow})
	}
	if w.post != nil {
		// Posted receiver: the arrivals travel to the far end's port,
		// gated there on the receiver-side cut flag (a cable cut is
		// observed at the far end one propagation later; anything
		// arriving after that is lost).  Packet completion keeps its
		// exact wire timing — every frame lasts at least an
		// acknowledge (2 bit times), which is precisely the
		// coordinator's lookahead, so start+dur is always a legal
		// cross-port instant.  Only the reception-start signal (which
		// fires the overlapped acknowledge) is deferred by the
		// propagation delay.  Sender-side bookkeeping stays local.
		if !dropped {
			start := w.k.Now()
			if p.kind == pktData {
				w.post(start+w.prop, w, p.flow, p.word()|startBit)
			}
			w.post(start+sim.Time(dur), w, p.flow, p.word())
		}
	} else if !dropped && p.kind == pktData {
		w.rxIn.dataStart(p.flow)
	}
	w.cur = p
	w.curDropped = dropped
	if w.txDone == nil {
		w.txDone = w.finishTx
	}
	w.k.After(sim.Time(dur), w.txDone)
}

// finishTx fires when the frame on the wire completes: deliver it to a
// synchronous receiver (unless lost, or the wire was cut while the
// frame was in flight), tell the sender a data frame is out, and start
// the next queued frame.
func (w *wire) finishTx() {
	p := w.cur
	if w.post == nil && !w.curDropped && !w.severed {
		w.arrive(p)
	}
	switch p.kind {
	case pktData:
		w.tx.txEnd()
	case pktRelData:
		w.tx.relTxEnd()
	}
	w.transmitNext()
}

// Receive implements sim.Receiver: the far end's port runs it for
// every arrival posted on this wire.  It reads only the wire's fixed
// ends and the receiver-owned cut gate, never sender state, so the
// same path is safe whether the two ends share a shard or run
// concurrently on two.
func (w *wire) Receive(flow, word uint64) {
	if w.rx.severed {
		return
	}
	if word&startBit != 0 {
		w.rxIn.dataStart(flow)
		return
	}
	w.arrive(unpack(flow, word))
}

// arrive hands a completed frame to the far-end half its kind names.
func (w *wire) arrive(p packet) {
	switch p.kind {
	case pktData:
		w.rxIn.dataArrive(p)
	case pktRelData:
		w.rxIn.relDataArrive(p)
	case pktAck:
		w.rxOut.ackArrived()
	case pktRelAck:
		w.rxOut.relAckArrived(p.seq)
	case pktNak:
		w.rxOut.relNakArrived()
	case pktBeat:
		w.rxIn.beatArrive()
	}
}

// attach connects the wire to the halves it joins: it carries out's
// data to farIn and in's acknowledges to farOut.
func (w *wire) attach(out *outHalf, in *inHalf, farIn *inHalf, farOut *outHalf) {
	w.tx, w.rxIn, w.rxOut = out, farIn, farOut
	out.wire = w
	in.ackWire = w
}

func boolByte(b bool) int {
	if b {
		return 1
	}
	return 0
}
