package model

import (
	"testing"
	"testing/quick"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := New(Config{Nodes: 8}); err == nil {
		t.Error("8 nodes accepted (timeout field overflows)")
	}
	if _, err := New(Config{Authority: guardian.Authority(9)}); err == nil {
		t.Error("bad authority accepted")
	}
	m := mustModel(t, Config{})
	if m.Config().Nodes != 4 || m.Config().Authority != guardian.AuthoritySmallShift {
		t.Errorf("defaults = %+v", m.Config())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustModel(t, Config{})
	f := func(phases [4]uint8, slots [4]uint8, agreed [4]uint8, failed [4]uint8,
		bb [4]bool, timeout [4]uint8, bufID [2]uint8, bufKind [2]uint8, oos uint8) bool {
		s := State{Nodes: make([]NodeState, 4)}
		for i := 0; i < 4; i++ {
			s.Nodes[i] = NodeState{
				Phase:   Phase(1 + phases[i]%6),
				Slot:    slots[i] % 5,
				Agreed:  agreed[i] % 16,
				Failed:  failed[i] % 16,
				BigBang: bb[i],
				Timeout: timeout[i] % 9,
			}
		}
		for c := 0; c < 2; c++ {
			s.Couplers[c] = CouplerState{BufferedID: bufID[c] % 5, BufferedKind: FrameKind(1 + bufKind[c]%5)}
		}
		s.OutOfSlotUsed = oos % 4
		dec := m.Decode(m.Encode(s))
		if len(dec.Nodes) != 4 {
			return false
		}
		for i := range s.Nodes {
			if dec.Nodes[i] != s.Nodes[i] {
				return false
			}
		}
		return dec.Couplers == s.Couplers && dec.OutOfSlotUsed == s.OutOfSlotUsed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInitialState(t *testing.T) {
	m := mustModel(t, Config{})
	inits := m.Initial()
	if len(inits) != 1 {
		t.Fatalf("Initial() returned %d states", len(inits))
	}
	s := m.Decode(inits[0])
	for i, n := range s.Nodes {
		if n.Phase != PhaseFreeze {
			t.Errorf("node %d initial phase %v", i, n.Phase)
		}
	}
	for _, c := range s.Couplers[:m.Config().Couplers] {
		if c.BufferedKind != FrameNone || c.BufferedID != 0 {
			t.Errorf("coupler initial buffer %+v", c)
		}
	}
}

// TestPropertyHoldsWithoutFullShift is the paper's §5.2 positive result:
// for passive, time-windows and small-shifting couplers the correctness
// property holds on the full reachable state space.
func TestPropertyHoldsWithoutFullShift(t *testing.T) {
	for _, a := range []guardian.Authority{
		guardian.AuthorityPassive,
		guardian.AuthorityTimeWindows,
		guardian.AuthoritySmallShift,
	} {
		t.Run(a.String(), func(t *testing.T) {
			m := mustModel(t, Config{Authority: a})
			res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Holds {
				t.Errorf("property fails for %v coupler:\ncounterexample length %d", a, len(res.Counterexample))
			}
			if res.StatesExplored == 0 {
				t.Error("no states explored")
			}
		})
	}
}

// TestPropertyFailsForFullShift is the paper's §5.2 negative result: a
// coupler that may buffer and replay whole frames can freeze a healthy
// integrated node.
func TestPropertyFailsForFullShift(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("property holds for full-shifting coupler; replay fault has no effect")
	}
	validateCounterexample(t, m, res.Counterexample)
	// The violation is an integrated node freezing.
	last := m.Decode(res.Counterexample[len(res.Counterexample)-1])
	prev := m.Decode(res.Counterexample[len(res.Counterexample)-2])
	found := false
	for i := range last.Nodes {
		if prev.Nodes[i].Phase.Integrated() && last.Nodes[i].Phase == PhaseFreeze {
			found = true
		}
	}
	if !found {
		t.Error("counterexample does not end with an integrated node freezing")
	}
}

// validateCounterexample checks every step of the trace is a genuine model
// transition.
func validateCounterexample(t *testing.T, m *Model, path []mc.State) {
	t.Helper()
	if len(path) < 2 {
		t.Fatal("trivial counterexample")
	}
	for i := 0; i+1 < len(path); i++ {
		if _, ok := m.Explain(path[i], path[i+1]); !ok {
			t.Fatalf("step %d of counterexample is not a valid transition", i+1)
		}
	}
}

// TestMaxOutOfSlotConstraint reproduces the paper's first published trace
// setting: at most one out-of-slot error, failure via a duplicated
// cold-start frame.
func TestMaxOutOfSlotConstraint(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("property holds with one allowed replay")
	}
	validateCounterexample(t, m, res.Counterexample)

	replays := 0
	sawColdStartReplay := false
	for i := 0; i+1 < len(res.Counterexample); i++ {
		info, _ := m.Explain(res.Counterexample[i], res.Counterexample[i+1])
		for c, f := range info.Faults {
			if f == FaultOutOfSlot {
				replays++
				if info.Channels[c].Kind == FrameColdStart {
					sawColdStartReplay = true
				}
			}
		}
	}
	if replays > 1 {
		t.Errorf("trace uses %d out-of-slot errors, constraint allows 1", replays)
	}
	if !sawColdStartReplay {
		t.Error("expected the failure to be triggered by a duplicated cold-start frame")
	}
	// The paper notes the constrained trace is longer than the
	// unconstrained shortest one.
	un := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	unRes, err := mc.CheckTransitionInvariant(un, un.Property(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counterexample) < len(unRes.Counterexample) {
		t.Errorf("constrained trace (%d) shorter than unconstrained (%d)",
			len(res.Counterexample), len(unRes.Counterexample))
	}
}

// TestNoColdStartReplayConstraint reproduces the paper's second trace
// setting: cold-start duplication prohibited, failure via a duplicated
// C-state frame.
func TestNoColdStartReplayConstraint(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, NoColdStartReplay: true})
	res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("property holds with C-state replay allowed")
	}
	validateCounterexample(t, m, res.Counterexample)

	sawCStateReplay := false
	for i := 0; i+1 < len(res.Counterexample); i++ {
		info, _ := m.Explain(res.Counterexample[i], res.Counterexample[i+1])
		for c, f := range info.Faults {
			if f == FaultOutOfSlot {
				if info.Channels[c].Kind == FrameColdStart {
					t.Error("trace replays a cold-start frame despite the constraint")
				}
				if info.Channels[c].Kind == FrameCState {
					sawCStateReplay = true
				}
			}
		}
	}
	if !sawCStateReplay {
		t.Error("expected the failure to be triggered by a duplicated C-state frame")
	}
}

// TestAllActiveReachable: the model must also be able to start up — the
// state with every node active is reachable (found as a "counterexample"
// to its own negation).
func TestAllActiveReachable(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift})
	res, err := mc.CheckInvariant(m, func(enc mc.State) bool {
		s := m.Decode(enc)
		for _, n := range s.Nodes {
			if n.Phase != PhaseActive {
				return true
			}
		}
		return false // "violation": everyone active
	}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("all-active cluster state unreachable; startup broken in model")
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name     string
		ch       [MaxCouplers]Content
		slot     uint8
		activity bool
		want     FrameKind
	}{
		{"bothSilent", [MaxCouplers]Content{{Kind: FrameNone}, {Kind: FrameNone}}, 2, false, FrameNone},
		{"correct", [MaxCouplers]Content{{Kind: FrameCState, ID: 2}, {Kind: FrameCState, ID: 2}}, 2, true, FrameCState},
		{"wrongID", [MaxCouplers]Content{{Kind: FrameCState, ID: 1}, {Kind: FrameCState, ID: 1}}, 2, true, FrameBad},
		{"oneChannelSaves", [MaxCouplers]Content{{Kind: FrameBad}, {Kind: FrameCState, ID: 2}}, 2, true, FrameCState},
		{"silencePlusCorrect", [MaxCouplers]Content{{Kind: FrameNone}, {Kind: FrameCState, ID: 2}}, 2, true, FrameCState},
		{"noiseWithActivity", [MaxCouplers]Content{{Kind: FrameBad}, {Kind: FrameNone}}, 2, true, FrameBad},
		{"noiseDeadSlot", [MaxCouplers]Content{{Kind: FrameBad}, {Kind: FrameNone}}, 2, false, FrameNone},
		{"coldStartIsWrongKind", [MaxCouplers]Content{{Kind: FrameColdStart, ID: 2}, {Kind: FrameNone}}, 2, true, FrameBad},
		{"otherCorrect", [MaxCouplers]Content{{Kind: FrameOther, ID: 3}, {Kind: FrameNone}}, 3, true, FrameCState},
	}
	for _, tc := range cases {
		if got := packedJudge(tc.ch, tc.slot, tc.activity); got != tc.want {
			t.Errorf("%s: packed judge = %v, want %v", tc.name, got, tc.want)
		}
		if got := judge(tc.ch, tc.slot, tc.activity); got != tc.want {
			t.Errorf("%s: reference judge = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// packedJudge reads the packed step's verdict for slot out of the
// channel summary: agreed (FrameCState), failed (FrameBad) or null
// (FrameNone), in the reference judge's terms.
func packedJudge(ch [MaxCouplers]Content, slot uint8, activity bool) FrameKind {
	cs := summarize(&ch, activity)
	switch {
	case cs.agree>>slot&1 != 0:
		return FrameCState
	case cs.fail>>slot&1 != 0:
		return FrameBad
	default:
		return FrameNone
	}
}

// packedStep drives the packed node step on a node given as a struct.
func (m *Model) packedStep(n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) NodeState {
	cs := summarize(&ch, activity)
	return nodeFromWord(m.stepWord(nodeWord(&n), own, &cs))
}

// packedChoices is the packed choice list of a node given as a struct.
func (m *Model) packedChoices(n NodeState, own uint8, ch [MaxCouplers]Content, activity bool) []NodeState {
	cs := summarize(&ch, activity)
	var out []NodeState
	for _, w := range m.appendChoiceWords(nil, nodeWord(&n), own, &cs) {
		out = append(out, nodeFromWord(w))
	}
	return out
}

// packedNominal is the packed nominal frame of a state given as a struct.
func (m *Model) packedNominal(s *State) (Content, bool) {
	words := make([]uint32, len(s.Nodes))
	for i := range s.Nodes {
		words[i] = nodeWord(&s.Nodes[i])
	}
	return m.nominalWords(words)
}

func TestStepListenBigBang(t *testing.T) {
	m := mustModel(t, Config{})
	cs := [MaxCouplers]Content{{Kind: FrameColdStart, ID: 1}, {Kind: FrameColdStart, ID: 1}}
	silent := [MaxCouplers]Content{{Kind: FrameNone}, {Kind: FrameNone}}

	// First cold-start frame arms big bang without integrating.
	n := nodeFromWord(m.listenWord(2))
	n1 := m.packedStep(n, 2, cs, true)
	if n1.Phase != PhaseListen || !n1.BigBang {
		t.Fatalf("after first cold-start: %+v", n1)
	}
	if n1.Timeout != 2+4 {
		t.Errorf("timeout not reset: %d", n1.Timeout)
	}
	// Second cold-start frame integrates: slot = sender+1, passive.
	n2 := m.packedStep(n1, 2, cs, true)
	if n2.Phase != PhasePassive || n2.Slot != 2 || n2.Agreed != 2 || n2.Failed != 0 {
		t.Errorf("after second cold-start: %+v", n2)
	}
	// Timeout decrements in silence.
	n3 := m.packedStep(n1, 2, silent, false)
	if n3.Timeout != n1.Timeout-1 {
		t.Errorf("timeout did not decrement: %d", n3.Timeout)
	}
}

func TestStepListenCStateIntegratesImmediately(t *testing.T) {
	m := mustModel(t, Config{})
	ch := [MaxCouplers]Content{{Kind: FrameCState, ID: 4}, {Kind: FrameNone}}
	n := m.packedStep(nodeFromWord(m.listenWord(2)), 2, ch, true)
	if n.Phase != PhasePassive || n.Slot != 1 { // slot 4 wraps to 1
		t.Errorf("C-state integration: %+v", n)
	}
}

func TestStepListenTimeoutToColdStart(t *testing.T) {
	m := mustModel(t, Config{})
	silent := [MaxCouplers]Content{{Kind: FrameNone}, {Kind: FrameNone}}
	n := NodeState{Phase: PhaseListen, Timeout: 0}
	got := m.packedStep(n, 3, silent, false)
	if got.Phase != PhaseColdStart || got.Slot != 3 || got.Agreed != 1 {
		t.Errorf("timeout expiry: %+v", got)
	}
	// A cold-start frame on the channel keeps the node in listen even at
	// timeout zero (§4.3).
	cs := [MaxCouplers]Content{{Kind: FrameColdStart, ID: 1}, {Kind: FrameNone}}
	got = m.packedStep(n, 3, cs, true)
	if got.Phase != PhaseListen {
		t.Errorf("cold-start frame did not hold node in listen: %+v", got)
	}
}

// TestStepOperationalCountersSaturate: the agreed and failed counters
// stop at 15, the top of their 4-bit fields, in both steppers.
func TestStepOperationalCountersSaturate(t *testing.T) {
	m := mustModel(t, Config{})
	agree := [MaxCouplers]Content{{Kind: FrameCState, ID: 2}, {Kind: FrameCState, ID: 2}}
	fail := [MaxCouplers]Content{{Kind: FrameBad}, {Kind: FrameBad}}
	for _, tc := range []struct {
		ch   [MaxCouplers]Content
		n    NodeState
		want NodeState
	}{
		{agree, NodeState{Phase: PhasePassive, Slot: 2, Agreed: 15, Failed: 3},
			NodeState{Phase: PhasePassive, Slot: 3, Agreed: 15, Failed: 3}},
		{fail, NodeState{Phase: PhaseActive, Slot: 2, Agreed: 4, Failed: 15},
			NodeState{Phase: PhaseActive, Slot: 3, Agreed: 4, Failed: 15}},
	} {
		if got := m.packedStep(tc.n, 1, tc.ch, true); got != tc.want {
			t.Errorf("packed step of %+v = %+v, want %+v", tc.n, got, tc.want)
		}
		if got := m.stepOperational(tc.n, 1, tc.ch, true); got != tc.want {
			t.Errorf("reference step of %+v = %+v, want %+v", tc.n, got, tc.want)
		}
	}
}

func TestNominalContentCollision(t *testing.T) {
	m := mustModel(t, Config{})
	s := State{Nodes: make([]NodeState, 4)}
	s.Nodes[0] = NodeState{Phase: PhaseColdStart, Slot: 1}
	s.Nodes[1] = NodeState{Phase: PhaseActive, Slot: 2}
	// Both believe it is their own slot: collision.
	s.Nodes[1].Slot = 2
	c, present := m.packedNominal(&s)
	if !present || c.Kind != FrameColdStart {
		// only node 1 transmits (slot 1 == own); node 2's slot==own too!
		t.Logf("content=%v present=%v", c, present)
	}
	// Make them genuinely collide: node 2 also at its own slot.
	s.Nodes[0] = NodeState{Phase: PhaseColdStart, Slot: 1}
	s.Nodes[1] = NodeState{Phase: PhaseActive, Slot: 2}
	c, present = m.packedNominal(&s)
	if c.Kind != FrameBad || !present {
		t.Errorf("two senders: content = %v, want bad_frame", c)
	}
}

func TestFaultAssignments(t *testing.T) {
	// Without full shifting: fault-free + {silence, bad} × 2 couplers.
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift})
	s := m.Decode(m.Initial()[0])
	if got := len(m.faultAssignments(s)); got != 5 {
		t.Errorf("small shifting: %d assignments, want 5", got)
	}
	// Full shifting with empty buffers: replay not yet possible.
	mf := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	sf := mf.Decode(mf.Initial()[0])
	if got := len(mf.faultAssignments(sf)); got != 5 {
		t.Errorf("full shifting, empty buffer: %d assignments, want 5", got)
	}
	// With a buffered frame: replay becomes available on both couplers.
	sf.Couplers[0].BufferedKind = FrameColdStart
	sf.Couplers[0].BufferedID = 1
	sf.Couplers[1].BufferedKind = FrameCState
	sf.Couplers[1].BufferedID = 2
	if got := len(mf.faultAssignments(sf)); got != 7 {
		t.Errorf("full shifting, buffered: %d assignments, want 7", got)
	}
	// NoColdStartReplay suppresses coupler 0's replay only.
	mn := mustModel(t, Config{Authority: guardian.AuthorityFullShift, NoColdStartReplay: true})
	if got := len(mn.faultAssignments(sf)); got != 6 {
		t.Errorf("no-CS-replay: %d assignments, want 6", got)
	}
	// MaxOutOfSlot exhausted suppresses all replays.
	ml := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	sl := sf
	sl.OutOfSlotUsed = 1
	if got := len(ml.faultAssignments(sl)); got != 5 {
		t.Errorf("replay budget spent: %d assignments, want 5", got)
	}
}

func TestAllowedFaults(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift})
	if got := len(m.AllowedFaults()); got != 3 {
		t.Errorf("small shifting allows %d faults, want 3", got)
	}
	mf := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	if got := len(mf.AllowedFaults()); got != 4 {
		t.Errorf("full shifting allows %d faults, want 4", got)
	}
}

func TestPhaseAndFrameStrings(t *testing.T) {
	phases := map[Phase]string{
		PhaseFreeze: "freeze", PhaseInit: "init", PhaseListen: "listen",
		PhaseColdStart: "cold_start", PhaseActive: "active", PhasePassive: "passive",
	}
	for p, w := range phases {
		if p.String() != w {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	kinds := map[FrameKind]string{
		FrameNone: "none", FrameColdStart: "cold_start", FrameCState: "c_state",
		FrameOther: "other", FrameBad: "bad_frame",
	}
	for k, w := range kinds {
		if k.String() != w {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	faults := map[Fault]string{
		FaultNone: "none", FaultSilence: "silence", FaultBadFrame: "bad_frame", FaultOutOfSlot: "out_of_slot",
	}
	for f, w := range faults {
		if f.String() != w {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	if Phase(9).String() == "" || FrameKind(9).String() == "" || Fault(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
	if !PhaseActive.Integrated() || !PhasePassive.Integrated() || PhaseListen.Integrated() {
		t.Error("Integrated() wrong")
	}
}

func TestAllowInitFreeze(t *testing.T) {
	m := mustModel(t, Config{AllowInitFreeze: true})
	n := NodeState{Phase: PhaseInit}
	ch := [MaxCouplers]Content{{Kind: FrameNone}, {Kind: FrameNone}}
	next := m.packedChoices(n, 1, ch, false)
	if len(next) != 3 {
		t.Errorf("init successors with AllowInitFreeze = %d, want 3", len(next))
	}
	m2 := mustModel(t, Config{})
	if got := len(m2.packedChoices(n, 1, ch, false)); got != 2 {
		t.Errorf("init successors = %d, want 2", got)
	}
}

func TestExplainRejectsNonTransition(t *testing.T) {
	m := mustModel(t, Config{})
	init := m.Initial()[0]
	// A state with a node in active out of nowhere is not one step away.
	s := m.Decode(init)
	s.Nodes[0].Phase = PhaseActive
	s.Nodes[0].Slot = 1
	if _, ok := m.Explain(init, m.Encode(s)); ok {
		t.Error("Explain accepted an impossible transition")
	}
}
