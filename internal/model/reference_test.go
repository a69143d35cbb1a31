package model

// The struct reference stepper. Production steps packed 20-bit node
// records (step.go); this file keeps the transcription of the §4.3
// constraints on decoded NodeState structs that the packed step replaced,
// and builds a whole reference expansion on it: decode, fault menu,
// channel contents, per-node choice lists, packing with the reference bit
// writer, map dedup. The differential tests (TestIncrementalEncoderMatchesReference,
// FuzzSuccessors, TestSilentRegionFaultInvisibility, the stepwise
// canonicalizer in canon_test.go) compare the packed paths against it.

import (
	"fmt"
)

// nodeWord packs one node state into its 20-bit encoding word, in
// appendBinary's field order, with the same range guards bitWriter.put
// enforces per field.
func nodeWord(n *NodeState) uint32 {
	if uint32(n.Phase) >= 1<<bitsPhase || uint32(n.Slot) >= 1<<bitsSlot ||
		uint32(n.Agreed) >= 1<<bitsAgreed || uint32(n.Failed) >= 1<<bitsFailed ||
		uint32(n.Timeout) >= 1<<bitsTimeout {
		panic(fmt.Sprintf("model: node state %+v overflows its fields", *n))
	}
	w := uint32(n.Phase)<<(bitsPerNode-bitsPhase) |
		uint32(n.Slot)<<(bitsAgreed+bitsFailed+bitsTimeout) |
		uint32(n.Agreed)<<(bitsFailed+bitsTimeout) |
		uint32(n.Failed)<<bitsTimeout |
		uint32(n.Timeout)
	if n.BigBang {
		w |= 1 << (bitsSlot + bitsAgreed + bitsFailed + bitsTimeout)
	}
	return w
}

// nominalContent computes the fault-free channel content for this slot —
// the frame each sending node puts on both channels (§4.3's frame_sent):
// cold-starting nodes send cold-start frames, active nodes send frames
// with explicit C-state — and whether any real sender transmitted.
func (m *Model) nominalContent(s *State) (Content, bool) {
	var first Content
	senders := 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		own := uint8(i + 1)
		if n.Slot != own {
			continue
		}
		switch n.Phase {
		case PhaseColdStart:
			if senders == 0 {
				first = Content{Kind: FrameColdStart, ID: own}
			}
			senders++
		case PhaseActive:
			if senders == 0 {
				kind := FrameCState
				if m.isDataSlot(int(own)) {
					kind = FrameOther
				}
				first = Content{Kind: kind, ID: own}
			}
			senders++
		}
	}
	switch senders {
	case 0:
		return Content{Kind: FrameNone}, false
	case 1:
		return first, true
	default:
		// Simultaneous transmissions collide into a bad frame.
		return Content{Kind: FrameBad}, true
	}
}

// refFaultAssignments is the fault menu read from a decoded state.
func (m *Model) refFaultAssignments(s *State) []faultAssignment {
	var faultFree faultAssignment
	for c := 0; c < m.cfg.Couplers; c++ {
		faultFree[c] = FaultNone
	}
	dst := []faultAssignment{faultFree}
	for c := 0; c < m.cfg.Couplers; c++ {
		for _, f := range injectableFaults {
			if !m.couplerAllows(c, f) {
				continue
			}
			if f == FaultOutOfSlot {
				if !m.cfg.Authority.CanBufferFrames() ||
					s.Couplers[c].BufferedKind == FrameNone ||
					m.cfg.NoColdStartReplay && s.Couplers[c].BufferedKind == FrameColdStart ||
					m.cfg.MaxOutOfSlot > 0 && int(s.OutOfSlotUsed) >= m.cfg.MaxOutOfSlot {
					continue
				}
			}
			fa := faultFree
			fa[c] = f
			dst = append(dst, fa)
		}
	}
	return dst
}

// faultAssignments is the production fault menu of a state given as a
// struct; the model tests enumerate fault menus through it.
func (m *Model) faultAssignments(s State) []faultAssignment {
	return m.appendFaultAssignments(nil, m.readTail([]byte(m.Encode(s))))
}

// appendNodeChoices appends node i's possible next states given the
// channel contents. Only freeze and init nodes are nondeterministic.
func (m *Model) appendNodeChoices(dst []NodeState, n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) []NodeState {
	switch n.Phase {
	case PhaseFreeze:
		dst = append(dst,
			NodeState{Phase: PhaseFreeze},
			NodeState{Phase: PhaseInit},
		)
		if m.cfg.AllowHostStates {
			dst = append(dst,
				NodeState{Phase: PhaseAwait},
				NodeState{Phase: PhaseTest},
			)
		}
		return dst

	case PhaseInit:
		dst = append(dst,
			NodeState{Phase: PhaseInit},
			m.enterListen(own),
		)
		if m.cfg.AllowInitFreeze {
			dst = append(dst, NodeState{Phase: PhaseFreeze})
		}
		return dst

	case PhaseAwait:
		return append(dst,
			NodeState{Phase: PhaseAwait},
			NodeState{Phase: PhaseDownload},
			NodeState{Phase: PhaseFreeze},
		)

	case PhaseTest, PhaseDownload:
		return append(dst,
			NodeState{Phase: n.Phase},
			NodeState{Phase: PhaseFreeze},
		)

	case PhaseListen:
		return append(dst, m.stepListen(n, own, ch))

	case PhaseColdStart, PhaseActive, PhasePassive:
		return append(dst, m.stepOperational(n, own, ch, activity))

	default:
		return append(dst, n)
	}
}

// enterListen is the listen-state entry: timeout = node_id + N (§4.3).
func (m *Model) enterListen(own uint8) NodeState {
	return NodeState{Phase: PhaseListen, Timeout: own + uint8(m.cfg.Nodes)}
}

// firstFrame returns the first channel content of the wanted kind,
// preferring channel 0 (the paper's id_on_bus). Entries past the model's
// coupler count carry the zero FrameKind, which matches no real kind.
func firstFrame(ch [MaxCouplers]Content, kind FrameKind) (Content, bool) {
	for c := 0; c < MaxCouplers; c++ {
		if ch[c].Kind == kind {
			return ch[c], true
		}
	}
	return Content{}, false
}

func anyKind(ch [MaxCouplers]Content, kind FrameKind) bool {
	_, ok := firstFrame(ch, kind)
	return ok
}

// stepListen transcribes the §4.3 LISTEN constraints.
func (m *Model) stepListen(n NodeState, own uint8, ch [MaxCouplers]Content) NodeState {
	cs, hasCS := firstFrame(ch, FrameColdStart)
	cst, hasCState := firstFrame(ch, FrameCState)

	integratingID := uint8(0)
	switch {
	case hasCState:
		integratingID = cst.ID
	case hasCS && (n.BigBang || m.cfg.DisableBigBang):
		integratingID = cs.ID
	}
	if integratingID != 0 {
		return NodeState{
			Phase:  PhasePassive,
			Slot:   m.nextSlot(integratingID),
			Agreed: 2, // self plus the frame integrated on
			Failed: 0,
		}
	}

	if !hasCS && n.Timeout == 0 {
		return NodeState{Phase: PhaseColdStart, Slot: own, Agreed: 1, Failed: 0}
	}

	if hasCS || anyKind(ch, FrameOther) {
		n.Timeout = own + uint8(m.cfg.Nodes)
	} else if n.Timeout > 0 {
		n.Timeout--
	}
	n.BigBang = n.BigBang || hasCS
	return n
}

// judge classifies this slot for a receiver expecting slot n.Slot, per the
// TTP/C validity/correctness rules: FrameCState for agreed, FrameBad for
// failed, FrameNone for null. A bad frame counts against the receiver
// only when there was real channel activity to misreceive.
func judge(ch [MaxCouplers]Content, slot uint8, activity bool) FrameKind {
	best := 0 // 0 null, 1 failed, 2 agreed
	for c := 0; c < MaxCouplers; c++ {
		v := 0
		switch ch[c].Kind {
		case FrameNone:
			v = 0
		case FrameBad:
			if activity {
				v = 1
			}
		case FrameColdStart:
			v = 1 // a cold-start frame is never the scheduled frame
		case FrameCState, FrameOther:
			if ch[c].ID == slot {
				v = 2
			} else {
				v = 1
			}
		}
		if v > best {
			best = v
		}
	}
	switch best {
	case 2:
		return FrameCState // agreed
	case 1:
		return FrameBad // failed
	default:
		return FrameNone // null
	}
}

// stepOperational advances a cold-start, active or passive node by one
// slot: judge the current slot, advance the slot counter, and run the
// end-of-round tests when the node's own slot comes up next (§4.3).
func (m *Model) stepOperational(n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) NodeState {
	agreed, failed := n.Agreed, n.Failed
	if n.Slot != own {
		switch judge(ch, n.Slot, activity) {
		case FrameCState:
			if agreed < 15 {
				agreed++
			}
		case FrameBad:
			if failed < 15 {
				failed++
			}
		}
	}

	n.Slot = m.nextSlot(n.Slot)
	n.Agreed, n.Failed = agreed, failed

	if n.Slot != own {
		return n
	}

	pass := agreed > failed
	switch n.Phase {
	case PhaseColdStart:
		switch {
		case agreed <= 1 && failed == 0:
			n.Agreed, n.Failed = 1, 0
		case pass:
			n.Phase = PhaseActive
			n.Agreed, n.Failed = 1, 0
		default:
			return m.enterListen(own)
		}

	case PhaseActive:
		if !pass {
			return NodeState{Phase: PhaseFreeze} // clique avoidance error
		}
		n.Agreed, n.Failed = 1, 0

	case PhasePassive:
		switch {
		case failed > 0 && !pass:
			return NodeState{Phase: PhaseFreeze} // clique avoidance error
		case pass && agreed >= 2:
			n.Phase = PhaseActive
			n.Agreed, n.Failed = 1, 0
		default:
			n.Agreed, n.Failed = 1, 0
		}
	}
	return n
}

// stepSilentChain advances an all-{listen, cold_start} state by one slot
// under the fault-free assignment, writing the successor's node records
// into dst, and reports whether the successor is still inside the
// all-{listen, cold_start} region.
func (m *Model) stepSilentChain(src, dst *State) bool {
	nominal, activity := m.nominalContent(src)
	var ch [MaxCouplers]Content
	for c := 0; c < m.cfg.Couplers; c++ {
		ch[c] = nominal
	}
	inRegion := true
	for i := range src.Nodes {
		own := uint8(i + 1)
		d := &dst.Nodes[i]
		if src.Nodes[i].Phase == PhaseListen {
			*d = m.stepListen(src.Nodes[i], own, ch)
		} else {
			*d = m.stepOperational(src.Nodes[i], own, ch, activity)
		}
		if d.Phase != PhaseListen && d.Phase != PhaseColdStart {
			inRegion = false
		}
	}
	return inRegion
}

// refChannels computes, on a decoded state, the channel contents, the
// activity bit and the successor's coupler/out-of-slot part under fault
// assignment fa.
func (m *Model) refChannels(s *State, fa faultAssignment, nominal Content, sendersPresent bool) ([MaxCouplers]Content, bool, State) {
	var ch [MaxCouplers]Content
	var next State
	oosThisStep := uint8(0)
	for c := 0; c < m.cfg.Couplers; c++ {
		switch fa[c] {
		case FaultSilence:
			ch[c] = Content{Kind: FrameNone}
		case FaultBadFrame:
			ch[c] = Content{Kind: FrameBad}
		case FaultOutOfSlot:
			ch[c] = Content{Kind: s.Couplers[c].BufferedKind, ID: s.Couplers[c].BufferedID}
			oosThisStep++
		default:
			ch[c] = nominal
		}
	}
	activity := sendersPresent
	for c := 0; c < m.cfg.Couplers; c++ {
		if fa[c] == FaultOutOfSlot && ch[c].Kind != FrameNone {
			activity = true
		}
	}
	for c := 0; c < m.cfg.Couplers; c++ {
		next.Couplers[c] = s.Couplers[c]
		if ch[c].ID != 0 {
			next.Couplers[c] = CouplerState{BufferedID: ch[c].ID, BufferedKind: ch[c].Kind}
		}
	}
	next.OutOfSlotUsed = s.OutOfSlotUsed
	if m.cfg.MaxOutOfSlot > 0 {
		next.OutOfSlotUsed += oosThisStep
		if int(next.OutOfSlotUsed) > m.cfg.MaxOutOfSlot {
			next.OutOfSlotUsed = uint8(m.cfg.MaxOutOfSlot)
		}
	}
	return ch, activity, next
}

// refEnumerate walks every transition of enc on structs, in the
// production enumeration order — fault assignment by fault assignment,
// then the cartesian product of the node choice lists with the last node
// varying fastest — calling visit with each successor's reference
// encoding until visit returns false. With reduce it skips the
// assignments the reduced expander's commutation filter skips (that
// filter changes which tails are emitted); otherwise it enumerates every
// assignment, so the production repeat-skip is checked, not mirrored.
func (m *Model) refEnumerate(enc []byte, reduce bool, visit func(fa faultAssignment, ch [MaxCouplers]Content, succ []byte) bool) {
	var s State
	m.decodeInto(enc, &s)
	nominal, sendersPresent := m.nominalContent(&s)
	var sigs []uint32
	for _, fa := range m.refFaultAssignments(&s) {
		ch, activity, next := m.refChannels(&s, fa, nominal, sendersPresent)
		if reduce {
			sig := reducedFaSignature(ch, m.cfg.Couplers, activity)
			if seenSig(sigs, sig) {
				continue
			}
			sigs = append(sigs, sig)
		}
		choices := make([][]NodeState, len(s.Nodes))
		for i, n := range s.Nodes {
			choices[i] = m.appendNodeChoices(nil, n, uint8(i+1), ch, activity)
		}
		next.Nodes = make([]NodeState, len(s.Nodes))
		var rec func(node int) bool
		rec = func(node int) bool {
			if node == len(next.Nodes) {
				return visit(fa, ch, m.appendBinary(nil, &next))
			}
			for _, c := range choices[node] {
				next.Nodes[node] = c
				if !rec(node + 1) {
					return false
				}
			}
			return true
		}
		if !rec(0) {
			return
		}
	}
}

// refSuccessors is the reference successor list: every successor
// encoding of enc, deduplicated in first-occurrence order.
func (m *Model) refSuccessors(enc []byte, reduce bool) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	m.refEnumerate(enc, reduce, func(_ faultAssignment, _ [MaxCouplers]Content, succ []byte) bool {
		if !seen[string(succ)] {
			seen[string(succ)] = true
			out = append(out, succ)
		}
		return true
	})
	return out
}

// refExplain is the reference explain: the first fault assignment, in
// menu order, under which from steps to target.
func (m *Model) refExplain(from, target []byte) (StepInfo, bool) {
	var info StepInfo
	found := false
	m.refEnumerate(from, false, func(fa faultAssignment, ch [MaxCouplers]Content, succ []byte) bool {
		if string(succ) == string(target) {
			info, found = StepInfo{Faults: fa, Channels: ch}, true
			return false
		}
		return true
	})
	return info, found
}
