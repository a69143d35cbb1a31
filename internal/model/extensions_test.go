package model

import (
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// The §5 results are robust to the model extensions the paper's full
// controller has but the published model elides: host-managed states,
// init-freeze detours, data-only (N-frame) slots, and larger clusters.

func checkProperty(t *testing.T, cfg Config) mc.Result {
	t.Helper()
	m := mustModel(t, cfg)
	res, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPropertyHoldsWithHostStates(t *testing.T) {
	res := checkProperty(t, Config{
		Authority:       guardian.AuthoritySmallShift,
		AllowHostStates: true,
	})
	if !res.Holds {
		t.Error("host states (await/test/download) break the property")
	}
	// The detours enlarge the space but must stay exhaustively checkable.
	if res.StatesExplored <= 34920 {
		t.Errorf("host states did not enlarge the space: %d states", res.StatesExplored)
	}
}

func TestHostStatesReachable(t *testing.T) {
	m := mustModel(t, Config{AllowHostStates: true})
	res, err := mc.CheckInvariant(m, func(enc mc.State) bool {
		s := m.Decode(enc)
		for _, n := range s.Nodes {
			if n.Phase == PhaseDownload {
				return false // "violation": download reached
			}
		}
		return true
	}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("download state unreachable despite AllowHostStates")
	}
}

func TestHostStatesOffByDefault(t *testing.T) {
	m := mustModel(t, Config{})
	res, err := mc.CheckInvariant(m, func(enc mc.State) bool {
		s := m.Decode(enc)
		for _, n := range s.Nodes {
			switch n.Phase {
			case PhaseAwait, PhaseTest, PhaseDownload:
				return false
			}
		}
		return true
	}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("host states reachable without AllowHostStates")
	}
}

func TestPropertyHoldsWithInitFreeze(t *testing.T) {
	if !checkProperty(t, Config{Authority: guardian.AuthoritySmallShift, AllowInitFreeze: true}).Holds {
		t.Error("init → freeze detour breaks the property")
	}
}

func TestPropertyWithDataSlots(t *testing.T) {
	// N-frame slots ("other") change what listeners can integrate on but
	// not the §5 verdicts.
	if !checkProperty(t, Config{Authority: guardian.AuthoritySmallShift, DataSlots: []int{2, 4}}).Holds {
		t.Error("data slots break the property for small shifting")
	}
	if checkProperty(t, Config{Authority: guardian.AuthorityFullShift, DataSlots: []int{2, 4}}).Holds {
		t.Error("full shifting passes with data slots")
	}
}

func TestDataSlotsRejectBadConfig(t *testing.T) {
	if _, err := New(Config{DataSlots: []int{9}}); err == nil {
		t.Error("out-of-range data slot accepted")
	}
	if _, err := New(Config{DataSlots: []int{0}}); err == nil {
		t.Error("zero data slot accepted")
	}
}

func TestDataSlotFramesAreOther(t *testing.T) {
	m := mustModel(t, Config{DataSlots: []int{2}})
	s := State{Nodes: make([]NodeState, 4)}
	s.Nodes[1] = NodeState{Phase: PhaseActive, Slot: 2}
	c, present := m.packedNominal(&s)
	if !present || c.Kind != FrameOther || c.ID != 2 {
		t.Errorf("data-slot content = %+v", c)
	}
	// Non-data slots still carry C-state frames.
	s.Nodes[1] = NodeState{}
	s.Nodes[2] = NodeState{Phase: PhaseActive, Slot: 3}
	c, _ = m.packedNominal(&s)
	if c.Kind != FrameCState {
		t.Errorf("regular slot content = %+v", c)
	}
}

// TestAllDataSlotsBlockIntegration: with every slot a data slot, a running
// cluster emits no explicit C-state, so a listening node can never
// integrate into it — the protocol-level reason the MEDL must schedule
// periodic I-frames.
func TestAllDataSlotsBlockIntegration(t *testing.T) {
	m := mustModel(t, Config{DataSlots: []int{1, 2, 3, 4}})
	// Reachability probe: a state with ≥3 integrated nodes would need
	// integration on C-state frames mid-operation; with all-data slots
	// only the cold-start path works, which still admits everyone during
	// startup. The decisive probe: "passive after an active cluster
	// formed" — a node in listen while ≥2 others are active can never
	// leave listen. We check the weaker invariant that is still telling:
	// no reachable state has a listen node with big-bang armed while two
	// nodes are active (cold-start frames stop once the cluster is up, so
	// late integration is impossible).
	res, err := mc.CheckInvariant(m, func(enc mc.State) bool {
		s := m.Decode(enc)
		active := 0
		for _, n := range s.Nodes {
			if n.Phase == PhaseActive {
				active++
			}
		}
		if active < 2 {
			return true
		}
		// With an active cluster running pure data slots, listen nodes
		// must never see integration material; if one integrated now it
		// could only be via a replay — impossible for small shifting.
		for _, n := range s.Nodes {
			if n.Phase == PhasePassive && n.Agreed == 2 && n.Failed == 0 {
				// Freshly integrated: allowed only during startup
				// (cold-start frames); with 2 active nodes the cold
				// starter has left cold_start, so this would be a late
				// integration.
				for _, o := range s.Nodes {
					if o.Phase == PhaseColdStart {
						return true // still startup
					}
				}
				return false
			}
		}
		return true
	}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("a node integrated into a running all-N-frame cluster")
	}
}

func TestScalingFiveNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("5-node exhaustive check takes ~5s")
	}
	res := checkProperty(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 5})
	if !res.Holds {
		t.Error("property fails at 5 nodes")
	}
	if !res.Reduced {
		t.Error("5-node small-shift check did not run reduced")
	}
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 5})
	resO, err := mc.CheckTransitionInvariant(m, m.Property(), mc.Options{NoReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resO.Holds {
		t.Error("property fails at 5 nodes in oracle mode")
	}
	if resO.StatesExplored < 400_000 {
		t.Errorf("suspiciously small 5-node space: %d", resO.StatesExplored)
	}
	// The reduction must pay for itself well past the acceptance bar.
	if resO.StatesExplored < 3*res.StatesExplored {
		t.Errorf("reduction below 3x at 5 nodes: %d reduced vs %d oracle states",
			res.StatesExplored, resO.StatesExplored)
	}
	resF := checkProperty(t, Config{Authority: guardian.AuthorityFullShift, Nodes: 5})
	if resF.Holds {
		t.Error("full shifting passes at 5 nodes")
	}
}

func TestScalingTwoAndThreeNodes(t *testing.T) {
	for _, n := range []int{2, 3} {
		res := checkProperty(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: n})
		if !res.Holds {
			t.Errorf("%d nodes: property fails", n)
		}
	}
	// The replay failure needs a victim distinct from the cold starter and
	// a surviving majority; it exists already at 3 nodes.
	res := checkProperty(t, Config{Authority: guardian.AuthorityFullShift, Nodes: 3})
	if res.Holds {
		t.Error("full shifting passes at 3 nodes")
	}
}

// TestBigBangAblation quantifies what the big-bang rule buys within this
// fault model: nothing against passive coupler faults (the property holds
// without it), and one extra slot of delay against the replay attack (the
// full-shifting counterexample shrinks from 13 to 12 states when big bang
// is disabled — the victim integrates on the first replayed frame).
func TestBigBangAblation(t *testing.T) {
	if !checkProperty(t, Config{Authority: guardian.AuthoritySmallShift, DisableBigBang: true}).Holds {
		t.Error("property fails without big bang for small shifting")
	}
	with := checkProperty(t, Config{Authority: guardian.AuthorityFullShift})
	without := checkProperty(t, Config{Authority: guardian.AuthorityFullShift, DisableBigBang: true})
	if with.Holds || without.Holds {
		t.Fatal("full shifting should fail with and without big bang")
	}
	if len(without.Counterexample) >= len(with.Counterexample) {
		t.Errorf("big bang did not delay the replay attack: %d vs %d states",
			len(without.Counterexample), len(with.Counterexample))
	}
}

func TestHostStatePhaseStrings(t *testing.T) {
	if PhaseAwait.String() != "await" || PhaseTest.String() != "test" || PhaseDownload.String() != "download" {
		t.Error("host-state phase strings wrong")
	}
	if PhaseAwait.Integrated() || PhaseDownload.Integrated() {
		t.Error("host states count as integrated")
	}
}
