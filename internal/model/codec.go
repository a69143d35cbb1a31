package model

// The packed binary state codec. Model states are tuples of small enums
// and saturating counters, so a fixed-width bit layout per field packs a
// full state into ceil((20·N + 12 + 8)/8) bytes — 13 bytes for the
// paper's 4-node cluster. This is the canonical encoding the checker
// interns as its visited-set key; the byte-per-field layout it replaced
// survives as EncodeString/DecodeString and serves as the codec oracle in
// the round-trip tests.
//
// Per-field widths (all ranges enforced by Config validation):
//
//	node:    phase 4 | bigbang 1 | slot 3 | agreed 4 | failed 4 | timeout 4  = 20 bits
//	coupler: kind 3 | id 3                                                   =  6 bits
//	tail:    out-of-slot-used 8                                              =  8 bits

import (
	"fmt"

	"ttastar/internal/mc"
)

// Field widths of the packed layout.
const (
	bitsPhase   = 4 // phases 1..9
	bitsBigBang = 1
	bitsSlot    = 3 // slots 0..7 (Nodes <= 7)
	bitsAgreed  = 4 // counters saturate at 15
	bitsFailed  = 4
	bitsTimeout = 4 // listen timeout <= 2*Nodes = 14
	bitsKind    = 3 // frame kinds 1..5
	bitsBufID   = 3 // buffered sender slot 0..7
	bitsOOS     = 8 // out-of-slot budget is a uint8

	bitsPerNode    = bitsPhase + bitsBigBang + bitsSlot + bitsAgreed + bitsFailed + bitsTimeout
	bitsPerCoupler = bitsKind + bitsBufID
)

// binarySize is the fixed encoding width in bytes for an n-node, c-coupler
// model.
func binarySize(n, c int) int {
	return (bitsPerNode*n + bitsPerCoupler*c + bitsOOS + 7) / 8
}

// bitWriter packs values MSB-first into a byte slice.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, bits uint) {
	if v >= 1<<bits {
		panic(fmt.Sprintf("model: value %d overflows %d-bit field", v, bits))
	}
	w.acc = w.acc<<bits | v
	w.n += bits
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
		w.n = 0
	}
}

// bitReader unpacks values MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos int
	acc uint64
	n   uint
}

func (r *bitReader) get(bits uint) uint64 {
	for r.n < bits {
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= bits
	return (r.acc >> r.n) & (1<<bits - 1)
}

// EncodeBinary packs s into the fixed-width binary layout. Equal states
// encode to equal byte strings, so the result is usable directly as the
// checker's interned visited-set key.
func (m *Model) EncodeBinary(s State) mc.State {
	return mc.State(m.appendBinary(make([]byte, 0, binarySize(m.cfg.Nodes, m.cfg.Couplers)), &s))
}

// appendBinary packs s onto dst — the allocation-free form of
// EncodeBinary the Expander's hot path packs successors with.
func (m *Model) appendBinary(dst []byte, s *State) []byte {
	w := bitWriter{buf: dst}
	for _, n := range s.Nodes {
		bb := uint64(0)
		if n.BigBang {
			bb = 1
		}
		w.put(uint64(n.Phase), bitsPhase)
		w.put(bb, bitsBigBang)
		w.put(uint64(n.Slot), bitsSlot)
		w.put(uint64(n.Agreed), bitsAgreed)
		w.put(uint64(n.Failed), bitsFailed)
		w.put(uint64(n.Timeout), bitsTimeout)
	}
	for _, c := range s.Couplers[:m.cfg.Couplers] {
		w.put(uint64(c.BufferedKind), bitsKind)
		w.put(uint64(c.BufferedID), bitsBufID)
	}
	w.put(uint64(s.OutOfSlotUsed), bitsOOS)
	w.flush()
	return w.buf
}

// DecodeBinary is the inverse of EncodeBinary.
func (m *Model) DecodeBinary(enc mc.State) State {
	var s State
	m.decodeInto([]byte(enc), &s)
	return s
}

// decodeInto is the scratch-reusing form of DecodeBinary: it unpacks enc
// into s, reusing s.Nodes when it has the capacity.
func (m *Model) decodeInto(enc []byte, s *State) {
	m.checkBinarySize(enc)
	if cap(s.Nodes) < m.cfg.Nodes {
		s.Nodes = make([]NodeState, m.cfg.Nodes)
	}
	s.Nodes = s.Nodes[:m.cfg.Nodes]
	for i := range s.Nodes {
		s.Nodes[i] = nodeFromWord(nodeBits(enc, i))
	}
	bit := bitsPerNode * m.cfg.Nodes
	r := bitReader{buf: enc[bit>>3:]}
	r.get(uint(bit & 7)) // an odd node count ends the records mid-byte
	for c := 0; c < m.cfg.Couplers; c++ {
		s.Couplers[c] = CouplerState{
			BufferedKind: FrameKind(r.get(bitsKind)),
			BufferedID:   uint8(r.get(bitsBufID)),
		}
	}
	for c := m.cfg.Couplers; c < MaxCouplers; c++ {
		s.Couplers[c] = CouplerState{}
	}
	s.OutOfSlotUsed = uint8(r.get(bitsOOS))
}

// checkBinarySize panics unless enc is exactly the model's encoding
// width.
func (m *Model) checkBinarySize(enc []byte) {
	if len(enc) != binarySize(m.cfg.Nodes, m.cfg.Couplers) {
		panic(fmt.Sprintf("model: binary state is %d bytes, want %d", len(enc), binarySize(m.cfg.Nodes, m.cfg.Couplers)))
	}
}

// phaseBits reads node i's phase field straight out of a packed encoding
// without decoding the rest of the state. The phase is the leading 4-bit
// field of each 20-bit node record, so its bit offset modulo 8 is always
// 0 or 4 — the field never straddles a byte boundary.
func phaseBits(enc []byte, i int) uint8 {
	bit := bitsPerNode * i
	b := enc[bit>>3]
	if bit&7 == 0 {
		return b >> 4
	}
	return b & 0x0F
}

// nodeBits reads node i's whole 20-bit record straight out of a packed
// encoding. A record starts on a byte boundary (even i) or halfway
// into a byte (odd i) and spans three bytes either way.
func nodeBits(enc []byte, i int) uint32 {
	o := bitsPerNode * i >> 3
	if i&1 == 0 {
		return uint32(enc[o])<<12 | uint32(enc[o+1])<<4 | uint32(enc[o+2])>>4
	}
	return uint32(enc[o]&0x0F)<<16 | uint32(enc[o+1])<<8 | uint32(enc[o+2])
}

// putNodeBits overwrites node i's 20-bit record in a packed encoding
// with w, leaving the neighbouring nibble of a shared byte untouched.
func putNodeBits(enc []byte, i int, w uint32) {
	o := bitsPerNode * i >> 3
	if i&1 == 0 {
		enc[o] = byte(w >> 12)
		enc[o+1] = byte(w >> 4)
		enc[o+2] = enc[o+2]&0x0F | byte(w<<4)
		return
	}
	enc[o] = enc[o]&0xF0 | byte(w>>16)
	enc[o+1] = byte(w >> 8)
	enc[o+2] = byte(w)
}

// readTail reads the coupler/out-of-slot tail straight out of a packed
// encoding as one right-aligned word: the couplers' 6-bit buffered
// frames in coupler order, then the 8-bit out-of-slot counter. The tail
// starts on a nibble boundary right after the node records.
func (m *Model) readTail(enc []byte) uint32 {
	bit := bitsPerNode * m.cfg.Nodes
	var acc uint64
	for _, b := range enc[bit>>3:] {
		acc = acc<<8 | uint64(b)
	}
	width := bitsPerCoupler*m.cfg.Couplers + bitsOOS
	pad := (len(enc)-bit>>3)*8 - bit&7 - width
	return uint32(acc>>pad) & (1<<width - 1)
}

// bufferedFrame reads coupler c's buffered frame out of a packed tail.
func (m *Model) bufferedFrame(tail uint32, c int) Content {
	v := tail >> (bitsOOS + bitsPerCoupler*(m.cfg.Couplers-1-c))
	return Content{Kind: FrameKind(v >> bitsBufID & (1<<bitsKind - 1)), ID: uint8(v & (1<<bitsBufID - 1))}
}

// tailOOS reads the out-of-slot counter out of a packed tail.
func tailOOS(tail uint32) uint8 { return uint8(tail) }

// nodeFromWord unpacks a 20-bit node record.
func nodeFromWord(w uint32) NodeState {
	return NodeState{
		Phase:   Phase(w >> (bitsPerNode - bitsPhase)),
		BigBang: w>>(bitsSlot+bitsAgreed+bitsFailed+bitsTimeout)&1 == 1,
		Slot:    uint8(w >> (bitsAgreed + bitsFailed + bitsTimeout) & (1<<bitsSlot - 1)),
		Agreed:  uint8(w >> (bitsFailed + bitsTimeout) & (1<<bitsAgreed - 1)),
		Failed:  uint8(w >> bitsTimeout & (1<<bitsFailed - 1)),
		Timeout: uint8(w & (1<<bitsTimeout - 1)),
	}
}
