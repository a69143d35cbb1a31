package model

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// reachableStates collects the concrete (oracle) reachable set by BFS —
// the ground truth the reduction's invariants are checked against.
func reachableStates(t *testing.T, m *Model) []mc.State {
	t.Helper()
	var states []mc.State
	seen := make(map[mc.State]bool)
	queue := m.Initial()
	for _, s := range queue {
		seen[s] = true
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		states = append(states, s)
		for _, n := range m.Successors(s) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return states
}

// TestCanonicalFormInvariants: on every concrete reachable state of a
// reducible configuration, the canonical representative has no freeze
// node, an empty coupler tail, a zero out-of-slot counter, and is a
// fixed point of the canonicalizer.
func TestCanonicalFormInvariants(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 3})
	if !m.Reducible() {
		t.Fatal("small shifting should be reducible")
	}
	for _, s := range reachableStates(t, m) {
		c := m.Canonicalize(s)
		if len(c) != len(s) {
			t.Fatalf("canonicalization changed encoding length: %d -> %d", len(s), len(c))
		}
		cs := m.Decode(c)
		for i, n := range cs.Nodes {
			if n.Phase == PhaseFreeze {
				t.Fatalf("canonical state keeps node %d frozen: %v", i, cs)
			}
		}
		for ci, cp := range cs.Couplers[:m.Config().Couplers] {
			if cp.BufferedKind != FrameNone || cp.BufferedID != 0 {
				t.Fatalf("canonical state keeps coupler %d buffer: %v", ci, cs)
			}
		}
		if cs.OutOfSlotUsed != 0 {
			t.Fatalf("canonical state keeps out-of-slot count: %v", cs)
		}
		if c2 := m.Canonicalize(c); c2 != c {
			t.Fatalf("canonicalization not idempotent:\n  %x\n  %x", c, c2)
		}
	}
}

// TestCanonicalizeIdentityWhenNotReducible: full-shifting couplers read
// their buffers (out-of-slot replay) and host-state detours break the
// freeze → init collapse, so both configurations must opt out — the
// canonicalizer is the identity there.
func TestCanonicalizeIdentityWhenNotReducible(t *testing.T) {
	for _, cfg := range []Config{
		{Authority: guardian.AuthorityFullShift, Nodes: 3},
		{Authority: guardian.AuthoritySmallShift, Nodes: 3, AllowHostStates: true},
	} {
		m := mustModel(t, cfg)
		if m.Reducible() {
			t.Fatalf("config %+v should not be reducible", cfg)
		}
		for _, s := range reachableStates(t, m) {
			if c := m.Canonicalize(s); c != s {
				t.Fatalf("non-reducible config %+v canonicalized %x to %x", cfg, s, c)
			}
		}
	}
}

// TestSilentRegionFaultInvisibility checks the determinism lemma the
// fast-forward collapse rests on: in every concrete reachable state
// whose nodes are all in listen or cold_start, every permitted fault
// assignment yields the same successor node-part — faults move only the
// dead coupler tail. It also pins stepSilentChain to exactly that
// common node-part.
func TestSilentRegionFaultInvisibility(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 4})
	checked := 0
	for _, s := range reachableStates(t, m) {
		st := m.Decode(s)
		allLC := true
		for _, n := range st.Nodes {
			if n.Phase != PhaseListen && n.Phase != PhaseColdStart {
				allLC = false
				break
			}
		}
		if !allLC {
			continue
		}
		checked++
		succs := m.Successors(s)
		if len(succs) == 0 {
			t.Fatalf("all-listen/cold-start state has no successors: %v", st)
		}
		first := m.Decode(succs[0])
		for _, o := range succs[1:] {
			os := m.Decode(o)
			for i := range os.Nodes {
				if os.Nodes[i] != first.Nodes[i] {
					t.Fatalf("fault assignment visible in silent region:\nfrom %v\n%v\nvs %v",
						st, first.Nodes, os.Nodes)
				}
			}
		}
		dst := State{Nodes: make([]NodeState, len(st.Nodes))}
		m.stepSilentChain(&st, &dst)
		for i := range dst.Nodes {
			if dst.Nodes[i] != first.Nodes[i] {
				t.Fatalf("stepSilentChain diverges from the enumerated successor:\nfrom %v\nchain %v\nenum  %v",
					st, dst.Nodes, first.Nodes)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no all-listen/cold-start states reachable — lemma untested")
	}
}

// TestReducedOracleEquivalence: the reduced search and the oracle agree
// on the verdict for every authority, cluster size 2–4, and the model
// ablations, at 1, 2 and 8 workers — and the reduced search marks its
// Result and explores no more states than the oracle.
func TestReducedOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence sweep skipped with -short")
	}
	cfgs := []Config{
		{Authority: guardian.AuthorityPassive},
		{Authority: guardian.AuthorityTimeWindows},
		{Authority: guardian.AuthoritySmallShift},
		{Authority: guardian.AuthorityFullShift},
		{Authority: guardian.AuthoritySmallShift, Nodes: 2},
		{Authority: guardian.AuthoritySmallShift, Nodes: 3},
		{Authority: guardian.AuthoritySmallShift, DisableBigBang: true},
		{Authority: guardian.AuthoritySmallShift, AllowInitFreeze: true},
		{Authority: guardian.AuthoritySmallShift, DataSlots: []int{2, 4}},
		{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1},
		{Authority: guardian.AuthorityFullShift, NoColdStartReplay: true},
	}
	for _, cfg := range cfgs {
		m := mustModel(t, cfg)
		oracle, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{NoReduce: true})
		if err != nil {
			t.Fatalf("%+v: oracle: %v", cfg, err)
		}
		if oracle.Reduced {
			t.Fatalf("%+v: oracle run marked Reduced", cfg)
		}
		for _, workers := range []int{1, 2, 8} {
			red, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{Workers: workers})
			if err != nil {
				t.Fatalf("%+v workers=%d: reduced: %v", cfg, workers, err)
			}
			if red.Holds != oracle.Holds {
				t.Errorf("%+v workers=%d: reduced holds=%v, oracle holds=%v",
					cfg, workers, red.Holds, oracle.Holds)
			}
			if red.Reduced != m.Reducible() {
				t.Errorf("%+v workers=%d: Reduced=%v but Reducible=%v",
					cfg, workers, red.Reduced, m.Reducible())
			}
			if !red.Reduced {
				// Identity reduction: the whole Result must match byte
				// for byte, counterexample included.
				if red.StatesExplored != oracle.StatesExplored ||
					red.TransitionsExplored != oracle.TransitionsExplored ||
					red.Depth != oracle.Depth ||
					len(red.Counterexample) != len(oracle.Counterexample) {
					t.Errorf("%+v workers=%d: non-reducible run diverged from oracle: %+v vs %+v",
						cfg, workers, red, oracle)
				}
				continue
			}
			if red.StatesExplored >= oracle.StatesExplored {
				t.Errorf("%+v workers=%d: reduction did not shrink the space: %d vs %d",
					cfg, workers, red.StatesExplored, oracle.StatesExplored)
			}
		}
	}
}

// noActive is a synthetic transition invariant that fails on every
// reducible configuration — "no node ever becomes active" — used to
// exercise the reduced counterexample path, which the §5.1 property
// never reaches (every reducible configuration satisfies it).
func noActive(m *Model) mc.TransitionInvariantBytes {
	return func(from, to []byte) bool {
		s := m.Decode(mc.State(to))
		for _, n := range s.Nodes {
			if n.Phase == PhaseActive {
				return false
			}
		}
		return true
	}
}

// TestReducedCounterexampleDecanonicalizes: a violation found in the
// quotient must come back as a concrete witness — a trace rooted at the
// initial state whose every step is a real oracle transition and whose
// last step violates the invariant.
func TestReducedCounterexampleDecanonicalizes(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift, Nodes: 3})
	for _, workers := range []int{1, 2, 8} {
		res, err := mc.CheckTransitionInvariantBytes(m, noActive(m), mc.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Holds || !res.Reduced {
			t.Fatalf("workers=%d: expected a reduced FAILS, got %+v", workers, res)
		}
		cex := res.Counterexample
		if len(cex) < 2 {
			t.Fatalf("workers=%d: degenerate counterexample: %d states", workers, len(cex))
		}
		if cex[0] != m.Initial()[0] {
			t.Errorf("workers=%d: witness does not start at the initial state", workers)
		}
		for i := 1; i < len(cex); i++ {
			found := false
			for _, s := range m.Successors(cex[i-1]) {
				if s == cex[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("workers=%d: witness step %d is not a concrete transition", workers, i)
			}
		}
		if noActive(m)([]byte(cex[len(cex)-2]), []byte(cex[len(cex)-1])) {
			t.Errorf("workers=%d: witness's final step does not violate the invariant", workers)
		}
		if res.Depth != len(cex)-1 {
			t.Errorf("workers=%d: Depth %d != witness length-1 %d", workers, res.Depth, len(cex)-1)
		}
	}
}

// TestCanonicalizeZeroAlloc: the canonicalizer shares the claim path's
// zero-allocation budget.
func TestCanonicalizeZeroAlloc(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthoritySmallShift})
	e := m.NewReducedExpander().(*Expander)
	enc := append([]byte(nil), []byte(m.Initial()[0])...)
	e.Canonicalize(enc) // warm the scratch
	var someSucc []byte
	for _, s := range e.Successors(enc) {
		someSucc = append(someSucc[:0], s...)
	}
	allocs := testing.AllocsPerRun(200, func() {
		copy(enc, someSucc)
		e.Canonicalize(enc)
	})
	if allocs != 0 {
		t.Errorf("Canonicalize allocates: %.1f allocs/op", allocs)
	}
}

// TestReducedFaSignature pins the commutation filter's equivalences:
// channel order commutes, and a bad frame is absorbed only on a silent
// bus.
func TestReducedFaSignature(t *testing.T) {
	cs := Content{Kind: FrameCState, ID: 2}
	bad := Content{Kind: FrameBad}
	none := Content{Kind: FrameNone}
	if reducedFaSignature([MaxCouplers]Content{cs, bad}, 2, true) !=
		reducedFaSignature([MaxCouplers]Content{bad, cs}, 2, true) {
		t.Error("channel swap not identified")
	}
	if reducedFaSignature([MaxCouplers]Content{bad, none}, 2, false) !=
		reducedFaSignature([MaxCouplers]Content{none, none}, 2, false) {
		t.Error("bad frame on a silent bus not absorbed")
	}
	if reducedFaSignature([MaxCouplers]Content{bad, cs}, 2, true) ==
		reducedFaSignature([MaxCouplers]Content{none, cs}, 2, true) {
		t.Error("bad frame on an active bus wrongly absorbed")
	}
	if reducedFaSignature([MaxCouplers]Content{cs, cs}, 2, true) ==
		reducedFaSignature([MaxCouplers]Content{none, cs}, 2, true) {
		t.Error("distinct channel outcomes identified")
	}
}

// stepwiseCanonicalize is the reference canonicalizer the packed one is
// checked against: decode, collapse freeze to init, walk the silent
// chain one slot at a time (Brent's cycle detection, then the cycle's
// minimal encoding), clear the tail and re-encode with the bit writer.
func stepwiseCanonicalize(m *Model, enc []byte) []byte {
	s := m.DecodeBinary(mc.State(enc))
	allLC := true
	for i := range s.Nodes {
		switch s.Nodes[i].Phase {
		case PhaseFreeze:
			s.Nodes[i] = NodeState{Phase: PhaseInit}
			allLC = false
		case PhaseListen, PhaseColdStart:
		default:
			allLC = false
		}
	}
	if allLC {
		s.Nodes = stepwiseFastForward(m, s.Nodes)
	}
	return encodeEmptyTail(m, s.Nodes)
}

// encodeEmptyTail packs nodes with the empty coupler/out-of-slot tail.
func encodeEmptyTail(m *Model, nodes []NodeState) []byte {
	s := State{Nodes: nodes}
	for c := 0; c < m.Config().Couplers; c++ {
		s.Couplers[c] = CouplerState{BufferedKind: FrameNone}
	}
	return m.appendBinary(nil, &s)
}

// stepwiseFastForward is the reference fast-forward: one stepSilentChain
// per slot, ffCap steps at most, Brent's detection on the unjumped chain.
func stepwiseFastForward(m *Model, nodes []NodeState) []NodeState {
	cur := &State{Nodes: slices.Clone(nodes)}
	next := &State{Nodes: make([]NodeState, len(nodes))}
	tort := slices.Clone(nodes)
	lam, power := 0, 1
	for steps := 0; ; steps++ {
		if steps >= ffCap {
			return cur.Nodes
		}
		if !m.stepSilentChain(cur, next) {
			return cur.Nodes
		}
		cur, next = next, cur
		lam++
		if slices.Equal(cur.Nodes, tort) {
			break
		}
		if lam == power {
			copy(tort, cur.Nodes)
			power *= 2
			lam = 0
		}
	}
	best := slices.Clone(cur.Nodes)
	bestEnc := encodeEmptyTail(m, best)
	for i := 1; i < lam; i++ {
		if !m.stepSilentChain(cur, next) {
			panic("stepwise fast-forward: a detected cycle left the region")
		}
		cur, next = next, cur
		if enc := encodeEmptyTail(m, cur.Nodes); bytes.Compare(enc, bestEnc) < 0 {
			best, bestEnc = slices.Clone(cur.Nodes), enc
		}
	}
	return best
}

// stepwiseConfigs are the reducible configurations the differential
// checks sweep: 3–5 nodes, 2 and 3 couplers, every reducible authority
// and the model ablations that change the silent chain.
var stepwiseConfigs = []Config{
	{Authority: guardian.AuthoritySmallShift, Nodes: 3},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4},
	{Authority: guardian.AuthoritySmallShift, Nodes: 5},
	{Authority: guardian.AuthoritySmallShift, Nodes: 3, Couplers: 3},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4, Couplers: 3},
	{Authority: guardian.AuthorityPassive, Nodes: 4},
	{Authority: guardian.AuthorityTimeWindows, Nodes: 4},
	{Authority: guardian.AuthorityTimeWindows, Nodes: 5},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4, DisableBigBang: true},
	{Authority: guardian.AuthoritySmallShift, Nodes: 5, DisableBigBang: true},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4, DataSlots: []int{2, 4}},
	{Authority: guardian.AuthoritySmallShift, Nodes: 5, DataSlots: []int{1}},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4, AllowInitFreeze: true},
	{Authority: guardian.AuthoritySmallShift, Nodes: 4, Couplers: 3,
		CouplerFaults: []FaultSet{FaultSetSilence, FaultSetAll, FaultSetBadFrame}},
}

// quotientSuccessors walks the reachable quotient of m breadth-first and
// calls visit on every raw successor (and the raw initial states) before
// it is canonicalized; visit returns the successor's canonical form.
func quotientSuccessors(m *Model, visit func(raw []byte) []byte) {
	e := m.NewReducedExpander().(*Expander)
	seen := make(map[string]bool)
	var queue [][]byte
	admit := func(raw []byte) {
		if c := visit(raw); !seen[string(c)] {
			seen[string(c)] = true
			queue = append(queue, c)
		}
	}
	for _, s := range m.Initial() {
		admit([]byte(s))
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, raw := range e.Successors(s) {
			admit(slices.Clone(raw))
		}
	}
}

// TestCanonicalizeMatchesStepwise: on every raw successor of the
// reachable quotient, the packed canonicalizer writes exactly the bytes
// of the stepwise reference.
func TestCanonicalizeMatchesStepwise(t *testing.T) {
	for _, cfg := range stepwiseConfigs {
		if testing.Short() && cfg.Nodes > 4 {
			continue
		}
		m := mustModel(t, cfg)
		if !m.Reducible() {
			t.Fatalf("%+v: not reducible", cfg)
		}
		e := m.NewReducedExpander().(*Expander)
		nodeBytes := bitsPerNode * m.Config().Nodes / 8
		rewritten := 0
		quotientSuccessors(m, func(raw []byte) []byte {
			want := stepwiseCanonicalize(m, raw)
			got := slices.Clone(raw)
			e.Canonicalize(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("%+v: Canonicalize(%x) = %x, stepwise reference %x\nstate %v",
					cfg, raw, got, want, m.Decode(mc.State(raw)))
			}
			if !bytes.Equal(raw[:nodeBytes], got[:nodeBytes]) {
				rewritten++
			}
			return got
		})
		if rewritten == 0 {
			t.Fatalf("%+v: no successor had its node records rewritten", cfg)
		}
	}
}

// fuzzConfigs are the models FuzzCanonicalize picks from: 2–7 nodes and
// the configurations of the differential test.
var fuzzConfigs = append([]Config{
	{Authority: guardian.AuthoritySmallShift, Nodes: 2},
	{Authority: guardian.AuthoritySmallShift, Nodes: 6},
	{Authority: guardian.AuthoritySmallShift, Nodes: 7},
	{Authority: guardian.AuthorityTimeWindows, Nodes: 7, Couplers: 3},
}, stepwiseConfigs...)

// inRangeState reads a packed state of m out of raw (zero-extended or
// truncated to the encoding width). Every field is kept within its
// packed width; phase nibbles outside the modeled phases are folded onto
// listen and cold_start, so the fuzzer reaches the silent region often.
func inRangeState(m *Model, raw []byte) []byte {
	enc := make([]byte, binarySize(m.Config().Nodes, m.Config().Couplers))
	copy(enc, raw)
	s := m.DecodeBinary(mc.State(enc))
	for i := range s.Nodes {
		if p := s.Nodes[i].Phase; p < PhaseFreeze || p > PhaseDownload {
			s.Nodes[i].Phase = PhaseListen + p%2
		}
	}
	return m.appendBinary(nil, &s)
}

// FuzzCanonicalize: on any in-range packed state of any fuzzed model the
// packed canonicalizer matches the stepwise reference, is idempotent and
// allocates nothing.
func FuzzCanonicalize(f *testing.F) {
	// Seeds: a spread of raw successors of the small reachable quotients.
	for ci, cfg := range fuzzConfigs {
		if cfg.Nodes > 4 {
			continue
		}
		m, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		n := 0
		quotientSuccessors(m, func(raw []byte) []byte {
			if n%97 == 0 && n < 97*8 {
				f.Add(uint8(ci), slices.Clone(raw))
			}
			n++
			return []byte(m.Canonicalize(mc.State(raw)))
		})
	}
	models := make([]*Expander, len(fuzzConfigs))
	f.Fuzz(func(t *testing.T, sel uint8, raw []byte) {
		ci := int(sel) % len(fuzzConfigs)
		if models[ci] == nil {
			m, err := New(fuzzConfigs[ci])
			if err != nil {
				t.Fatal(err)
			}
			models[ci] = m.NewReducedExpander().(*Expander)
		}
		e := models[ci]
		m := e.m
		in := inRangeState(m, raw)
		want := stepwiseCanonicalize(m, in)
		got := slices.Clone(in)
		e.Canonicalize(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: Canonicalize(%x) = %x, stepwise reference %x\nstate %v",
				fuzzConfigs[ci], in, got, want, m.Decode(mc.State(in)))
		}
		again := slices.Clone(got)
		e.Canonicalize(again)
		if !bytes.Equal(again, got) {
			t.Fatalf("%+v: not idempotent on %x: %x then %x", fuzzConfigs[ci], in, got, again)
		}
		buf := make([]byte, len(in))
		if allocs := testing.AllocsPerRun(2, func() {
			copy(buf, in)
			e.Canonicalize(buf)
		}); allocs != 0 {
			t.Fatalf("%+v: Canonicalize(%x) allocates: %.1f allocs/op", fuzzConfigs[ci], in, allocs)
		}
	})
}

// canonCorpus is BenchmarkCanonicalize's fixed input: every 8th raw
// successor, in BFS order, of the reachable 5-node small-shifting
// quotient, built once per test binary.
var canonCorpus = sync.OnceValues(func() (*Model, [][]byte) {
	m, err := New(Config{Authority: guardian.AuthoritySmallShift, Nodes: 5})
	if err != nil {
		panic(err)
	}
	var corpus [][]byte
	n := 0
	quotientSuccessors(m, func(raw []byte) []byte {
		if n%8 == 0 {
			corpus = append(corpus, slices.Clone(raw))
		}
		n++
		return []byte(m.Canonicalize(mc.State(raw)))
	})
	return m, corpus
})

// BenchmarkCanonicalize times one in-place Canonicalize per op over the
// raw 5-node successor corpus — the canonicalize layer on its own, next
// to the end-to-end figures of the repository benchmark.
func BenchmarkCanonicalize(b *testing.B) {
	m, corpus := canonCorpus()
	e := m.NewReducedExpander().(*Expander)
	buf := make([]byte, len(corpus[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, corpus[i%len(corpus)])
		e.Canonicalize(buf)
	}
}
