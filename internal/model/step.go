package model

// The transition relation: one TDMA slot. A node's step reads and writes
// its 20-bit packed record (codec.go) directly, given a summary of the
// slot's channel contents computed once per fault assignment (chanSum).
// Listen, cold-start, active and passive records step in code on their
// bit fields; freeze, init and the host-managed phases produce constant
// word lists. This one stepper drives Successors, the canonicalizer's
// silent chain and trace explanation. The §4.3 transcription on decoded
// NodeState structs it replaced is kept in reference_test.go, where the
// differential tests compare the two.

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

// nominalWords computes the fault-free channel content for this slot
// from the packed node words — the frame each sending node puts on both
// channels (§4.3's frame_sent): cold-starting nodes send cold-start
// frames, active nodes send frames with explicit C-state — and whether
// any real sender transmitted.
func (m *Model) nominalWords(words []uint32) (Content, bool) {
	var first Content
	senders := 0
	for i, w := range words {
		own := uint8(i + 1)
		if wordSlot(w) != own {
			continue
		}
		switch wordPhase(w) {
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
// tail is the source state's packed coupler/out-of-slot tail (readTail).
func (m *Model) appendFaultAssignments(dst []faultAssignment, tail uint32) []faultAssignment {
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
				kind := m.bufferedFrame(tail, c).Kind
				if kind == FrameNone {
					continue // nothing buffered yet
				}
				if m.cfg.NoColdStartReplay && kind == FrameColdStart {
					continue // the paper's second-trace constraint
				}
				if m.cfg.MaxOutOfSlot > 0 && int(tailOOS(tail)) >= m.cfg.MaxOutOfSlot {
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

// chanSum is everything a node step reads of one slot's channel
// contents, computed once per fault assignment (summarize): the frames a
// listener may integrate on or reset its timeout for, and the judge's
// verdict for each of the eight slot values as two bit masks.
type chanSum struct {
	hasCS     bool  // some channel carries a cold-start frame
	csID      uint8 // the first one's id, channel 0 preferred (the paper's id_on_bus)
	hasCState bool  // some channel carries a frame with explicit C-state
	cstateID  uint8 // the first one's id
	other     bool  // some channel carries an "other" frame
	agree     uint8 // bit s: some channel carries slot s's scheduled frame
	fail      uint8 // bit s: some channel carries a frame that fails slot s
}

// summarize folds the channel contents into a chanSum. Entries past the
// model's coupler count carry the zero FrameKind, which matches no real
// kind.
func summarize(ch *[MaxCouplers]Content, activity bool) chanSum {
	var cs chanSum
	for c := range ch {
		cs.add(ch[c], activity)
	}
	return cs
}

// add folds one channel's content into the summary. A bad frame counts
// against a receiver only when there was real channel activity to
// misreceive (see DESIGN.md on the membership abstraction); a cold-start
// frame is never the scheduled frame.
func (cs *chanSum) add(c Content, activity bool) {
	switch c.Kind {
	case FrameBad:
		if activity {
			cs.fail = 0xFF
		}
	case FrameColdStart:
		if !cs.hasCS {
			cs.hasCS, cs.csID = true, c.ID
		}
		cs.fail = 0xFF
	case FrameCState, FrameOther:
		if c.Kind == FrameOther {
			cs.other = true
		} else if !cs.hasCState {
			cs.hasCState, cs.cstateID = true, c.ID
		}
		cs.agree |= 1 << c.ID
		cs.fail |= ^uint8(1 << c.ID)
	}
}

// Packed node records (codec.go): phase 4 | bigbang 1 | slot 3 |
// agreed 4 | failed 4 | timeout 4, most significant first. The node step
// below reads and writes these fields in place.
const (
	shiftFailed  = bitsTimeout
	shiftAgreed  = shiftFailed + bitsFailed
	shiftSlot    = shiftAgreed + bitsAgreed
	shiftBigBang = shiftSlot + bitsSlot
	shiftPhase   = shiftBigBang + bitsBigBang

	timeoutMask = 1<<bitsTimeout - 1
	bigBangBit  = 1 << shiftBigBang
	slotMask    = (1<<bitsSlot - 1) << shiftSlot
	phaseMask   = (1<<bitsPhase - 1) << shiftPhase
	// progressMask covers the fields an operational step rewrites.
	progressMask = slotMask | (1<<bitsAgreed-1)<<shiftAgreed | (1<<bitsFailed-1)<<shiftFailed
)

func wordPhase(w uint32) Phase { return Phase(w >> shiftPhase) }
func wordSlot(w uint32) uint8  { return uint8(w & slotMask >> shiftSlot) }

// phaseWord is the record of a node in phase p with every other field
// zero — what the host-managed transitions and a freeze produce.
func phaseWord(p Phase) uint32 { return uint32(p) << shiftPhase }

// initWord is the packed record of a freshly initialized node — also
// the freeze → init collapse's image of every frozen record.
var initWord = phaseWord(PhaseInit)

// listenWord is the listen-state entry: timeout = node_id + N (§4.3).
func (m *Model) listenWord(own uint8) uint32 {
	return phaseWord(PhaseListen) | (uint32(own) + uint32(m.cfg.Nodes))
}

// appendChoiceWords appends the packed records node own (record w) may
// move to in one slot with channel summary cs. Only freeze, init and
// the host-managed phases are nondeterministic; their choices do not
// depend on the channels.
func (m *Model) appendChoiceWords(dst []uint32, w uint32, own uint8, cs *chanSum) []uint32 {
	switch p := wordPhase(w); p {
	case PhaseFreeze:
		// §4.3: from freeze the node may re-initialize or, with host
		// states enabled, detour via await or test.
		dst = append(dst, phaseWord(PhaseFreeze), initWord)
		if m.cfg.AllowHostStates {
			dst = append(dst, phaseWord(PhaseAwait), phaseWord(PhaseTest))
		}
		return dst

	case PhaseInit:
		dst = append(dst, initWord, m.listenWord(own))
		if m.cfg.AllowInitFreeze {
			dst = append(dst, phaseWord(PhaseFreeze))
		}
		return dst

	case PhaseAwait:
		// Awaiting host decisions: stay, download a configuration, or
		// return to freeze.
		return append(dst, phaseWord(PhaseAwait), phaseWord(PhaseDownload), phaseWord(PhaseFreeze))

	case PhaseTest, PhaseDownload:
		return append(dst, phaseWord(p), phaseWord(PhaseFreeze))

	default:
		return append(dst, m.stepWord(w, own, cs))
	}
}

// stepWord advances a deterministic node record by one slot: listen,
// cold-start, active and passive nodes step; a record in any other
// phase is returned as it is (the nondeterministic phases go through
// appendChoiceWords). The canonicalizer's silent chain steps through
// here too, with the fault-free channel summary.
func (m *Model) stepWord(w uint32, own uint8, cs *chanSum) uint32 {
	switch p := wordPhase(w); p {
	case PhaseListen:
		return m.stepListenWord(w, own, cs)
	case PhaseColdStart, PhaseActive, PhasePassive:
		return m.stepOperationalWord(w, p, own, cs)
	default:
		return w
	}
}

// stepListenWord transcribes the §4.3 LISTEN constraints on a packed
// record.
func (m *Model) stepListenWord(w uint32, own uint8, cs *chanSum) uint32 {
	// Frames with explicit C-state integrate immediately; cold-start
	// frames integrate only once big_bang is armed by an earlier one
	// (unless the ablation disables the rule).
	integratingID := uint8(0)
	switch {
	case cs.hasCState:
		integratingID = cs.cstateID
	case cs.hasCS && (w&bigBangBit != 0 || m.cfg.DisableBigBang):
		integratingID = cs.csID
	}
	if integratingID != 0 {
		// Passive, agreed 2: self plus the frame integrated on.
		return phaseWord(PhasePassive) | uint32(m.nextSlot(integratingID))<<shiftSlot | 2<<shiftAgreed
	}

	// A cold-start frame not used for integration keeps the node in listen
	// even if the timeout just reached zero.
	if !cs.hasCS && w&timeoutMask == 0 {
		return phaseWord(PhaseColdStart) | uint32(own)<<shiftSlot | 1<<shiftAgreed
	}

	// listen_timeout: reset on cold-start and "other" frames, else count
	// down (§4.3).
	if cs.hasCS || cs.other {
		w = w&^timeoutMask | (uint32(own) + uint32(m.cfg.Nodes))
	} else if w&timeoutMask > 0 {
		w--
	}
	if cs.hasCS {
		w |= bigBangBit
	}
	return w
}

// stepOperationalWord advances a cold-start, active or passive record (phase
// p) by one slot: judge the current slot, advance the slot counter, and
// run the end-of-round tests when the node's own slot comes up next
// (§4.3). Counters saturate at 15.
func (m *Model) stepOperationalWord(w uint32, p Phase, own uint8, cs *chanSum) uint32 {
	slot := wordSlot(w)
	agreed := w >> shiftAgreed & (1<<bitsAgreed - 1)
	failed := w >> shiftFailed & (1<<bitsFailed - 1)
	if slot != own {
		switch {
		case cs.agree>>slot&1 != 0:
			if agreed < 15 {
				agreed++
			}
		case cs.fail>>slot&1 != 0:
			if failed < 15 {
				failed++
			}
		}
	}
	slot = m.nextSlot(slot)
	w = w&^progressMask | uint32(slot)<<shiftSlot | agreed<<shiftAgreed | failed<<shiftFailed
	if slot != own {
		return w
	}

	// The node's own slot comes up next: end-of-round decisions. Every
	// surviving node restarts its round with agreed 1 (itself), failed 0.
	pass := agreed > failed
	switch p {
	case PhaseColdStart:
		switch {
		case agreed <= 1 && failed == 0:
			// Nobody answered: stay in cold start (and send again).
		case pass:
			p = PhaseActive
		default:
			return m.listenWord(own)
		}

	case PhaseActive:
		if !pass {
			return phaseWord(PhaseFreeze) // clique avoidance error
		}

	case PhasePassive:
		switch {
		case failed > 0 && !pass:
			return phaseWord(PhaseFreeze) // clique avoidance error
		case pass && agreed >= 2:
			p = PhaseActive
		}
	}
	return w&^(phaseMask|progressMask) | phaseWord(p) | uint32(slot)<<shiftSlot | 1<<shiftAgreed
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
