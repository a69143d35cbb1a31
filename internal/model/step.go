package model

import (
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// Content is what one channel carries during a slot.
type Content struct {
	Kind FrameKind
	ID   uint8 // sender round-slot position; 0 for none/bad
}

// faultAssignment is one per-step choice of coupler faults, honouring the
// fault hypothesis "at most one coupler has a fault at a given time".
// Entries at or past the model's coupler count stay zero-valued.
type faultAssignment [MaxCouplers]Fault

// StepInfo describes how one transition happened: the fault choice and the
// resulting channel contents. Trace rendering uses it. Entries at or past
// the model's coupler count are zero-valued (not FaultNone/FrameNone).
type StepInfo struct {
	Faults   [MaxCouplers]Fault
	Channels [MaxCouplers]Content
}

// Successors implements mc.Model: all states reachable in one TDMA slot.
// It borrows a pooled Expander for the expansion and copies the results
// out of its scratch; the engine's hot path uses NewExpander directly and
// skips both the pool round-trip and the copies.
func (m *Model) Successors(enc mc.State) []mc.State {
	e := m.expanders.Get().(*Expander)
	succs := e.Successors([]byte(enc))
	out := make([]mc.State, len(succs))
	for i, sb := range succs {
		out[i] = mc.State(sb)
	}
	m.expanders.Put(e)
	return out
}

// Explain finds a fault/channel assignment under which 'from' steps to
// 'to'. It re-enumerates the single transition, which is cheap.
func (m *Model) Explain(from, to mc.State) (StepInfo, bool) {
	e := m.expanders.Get().(*Expander)
	info, ok := e.explain([]byte(from), []byte(to))
	m.expanders.Put(e)
	return info, ok
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

// injectableFaults is the per-coupler fault menu, in enumeration order.
var injectableFaults = [...]Fault{FaultSilence, FaultBadFrame, FaultOutOfSlot}

// appendFaultAssignments appends the per-step coupler fault choices to
// dst: fault-free first, then each single-coupler fault allowed by the
// configuration ("at most one coupler has a fault at a given time").
func (m *Model) appendFaultAssignments(dst []faultAssignment, s *State) []faultAssignment {
	var faultFree faultAssignment
	for c := 0; c < m.cfg.Couplers; c++ {
		faultFree[c] = FaultNone
	}
	dst = append(dst, faultFree)
	for c := 0; c < m.cfg.Couplers; c++ {
		for _, f := range injectableFaults {
			if !m.couplerAllows(c, f) {
				continue // channel asymmetry: mode masked off on this coupler
			}
			if f == FaultOutOfSlot {
				if !m.cfg.Authority.CanBufferFrames() {
					continue // §4.4: only full shifting can replay
				}
				if s.Couplers[c].BufferedKind == FrameNone {
					continue // nothing buffered yet
				}
				if m.cfg.NoColdStartReplay && s.Couplers[c].BufferedKind == FrameColdStart {
					continue // the paper's second-trace constraint
				}
				if m.cfg.MaxOutOfSlot > 0 && int(s.OutOfSlotUsed) >= m.cfg.MaxOutOfSlot {
					continue // the paper's first-trace constraint
				}
			}
			fa := faultFree
			fa[c] = f
			dst = append(dst, fa)
		}
	}
	return dst
}

// faultAssignments is appendFaultAssignments without caller-owned scratch;
// the model tests enumerate fault menus through it.
func (m *Model) faultAssignments(s State) []faultAssignment {
	return m.appendFaultAssignments(nil, &s)
}

// appendNodeChoices appends node i's possible next states given the
// channel contents. Only freeze and init nodes are nondeterministic.
func (m *Model) appendNodeChoices(dst []NodeState, n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) []NodeState {
	switch n.Phase {
	case PhaseFreeze:
		// §4.3: from freeze the node may re-initialize or, with host
		// states enabled, detour via await or test.
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
		// Awaiting host decisions: stay, download a configuration, or
		// return to freeze.
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

// stepNode is appendNodeChoices without caller-owned scratch; the model
// tests enumerate choice sets through it.
func (m *Model) stepNode(n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) []NodeState {
	return m.appendNodeChoices(nil, n, own, ch, activity)
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

	// Frames with explicit C-state integrate immediately; cold-start
	// frames integrate only once big_bang is armed by an earlier one
	// (unless the ablation disables the rule).
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

	// A cold-start frame not used for integration keeps the node in listen
	// even if the timeout just reached zero.
	if !hasCS && n.Timeout == 0 {
		return NodeState{Phase: PhaseColdStart, Slot: own, Agreed: 1, Failed: 0}
	}

	// listen_timeout: reset on cold-start and "other" frames, else count
	// down (§4.3).
	if hasCS || anyKind(ch, FrameOther) {
		n.Timeout = own + uint8(m.cfg.Nodes)
	} else if n.Timeout > 0 {
		n.Timeout--
	}
	n.BigBang = n.BigBang || hasCS
	return n
}

// judge classifies this slot for a receiver expecting slot n.Slot, per the
// TTP/C validity/correctness rules. A bad frame counts against the
// receiver only when there was real channel activity to misreceive (see
// DESIGN.md on the membership abstraction).
func judge(ch [MaxCouplers]Content, slot uint8, activity bool) FrameKind {
	// Return the dominant judgement encoded as a FrameKind-ish verdict:
	// we reduce to three outcomes below.
	best := 0 // 0 null, 1 failed, 2 agreed
	for c := 0; c < MaxCouplers; c++ {
		// The zero FrameKind (past-coupler padding) matches no case and
		// judges null, so iterating the full array is harmless.
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

	// The node's own slot comes up next: end-of-round decisions.
	pass := agreed > failed
	switch n.Phase {
	case PhaseColdStart:
		switch {
		case agreed <= 1 && failed == 0:
			// Nobody answered: stay in cold start (and send again).
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

func (m *Model) isDataSlot(slot int) bool {
	for _, s := range m.cfg.DataSlots {
		if s == slot {
			return true
		}
	}
	return false
}

func (m *Model) nextSlot(s uint8) uint8 {
	if int(s) >= m.cfg.Nodes {
		return 1
	}
	return s + 1
}

// AllowedFaults lists the fault modes the configuration permits on at
// least one coupler, for reporting in the verification matrix.
func (m *Model) AllowedFaults() []Fault {
	out := []Fault{FaultNone}
	for _, f := range injectableFaults {
		if f == FaultOutOfSlot && m.cfg.Authority != guardian.AuthorityFullShift {
			continue
		}
		for c := 0; c < m.cfg.Couplers; c++ {
			if m.couplerAllows(c, f) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
