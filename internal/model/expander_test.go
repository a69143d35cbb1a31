package model

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// collectLevels walks the first depth BFS levels of m through an
// Expander, returning distinct states in discovery order.
func collectLevels(t *testing.T, m *Model, e *Expander, depth int) [][]byte {
	t.Helper()
	seen := map[string]bool{}
	var all, frontier [][]byte
	for _, s := range m.Initial() {
		b := []byte(s)
		seen[string(b)] = true
		all = append(all, b)
		frontier = append(frontier, b)
	}
	for d := 0; d < depth; d++ {
		var next [][]byte
		for _, s := range frontier {
			for _, succ := range e.Successors(s) {
				if !seen[string(succ)] {
					seen[string(succ)] = true
					cp := append([]byte(nil), succ...)
					all = append(all, cp)
					next = append(next, cp)
				}
			}
		}
		frontier = next
	}
	return all
}

// TestExpanderSteadyStateZeroAlloc is the successor-generation half of
// the PR's zero-allocation contract: once an Expander's scratch has
// grown to its high-water capacity, expanding states allocates nothing.
// The bound is generous (0.5 allocs per expansion averaged over 50
// rounds) so incidental growth or GC noise cannot flake CI.
func TestExpanderSteadyStateZeroAlloc(t *testing.T) {
	// Full shifting exercises the widest expansion (out-of-slot replay).
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift})
	e := m.newExpander()
	states := collectLevels(t, m, e, 3)
	// Warm pass: let every buffer reach the capacity this state set needs.
	for _, s := range states {
		e.Successors(s)
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, s := range states {
			e.Successors(s)
		}
	})
	if avg > 0.5 {
		t.Errorf("steady-state Successors allocates %.2f per %d-state round, want 0", avg, len(states))
	}
}

// TestExpanderMatchesModelSuccessors: the engine-facing Expander and the
// public Successors wrapper agree state by state (same successors, same
// first-occurrence order, no duplicates), and independent Expanders are
// deterministic.
func TestExpanderMatchesModelSuccessors(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	e1 := m.newExpander()
	e2 := m.newExpander()
	states := collectLevels(t, m, e1, 4)
	for _, s := range states {
		viaWrapper := m.Successors(mc.State(s))
		viaExpander := e2.Successors(s)
		if len(viaWrapper) != len(viaExpander) {
			t.Fatalf("state %x: wrapper %d successors, expander %d", s, len(viaWrapper), len(viaExpander))
		}
		seen := map[string]bool{}
		for i := range viaExpander {
			if string(viaWrapper[i]) != string(viaExpander[i]) {
				t.Fatalf("state %x successor %d: wrapper %x, expander %x", s, i, viaWrapper[i], viaExpander[i])
			}
			if seen[string(viaExpander[i])] {
				t.Fatalf("state %x: duplicate successor %x", s, viaExpander[i])
			}
			seen[string(viaExpander[i])] = true
		}
	}
}

// TestIncrementalEncoderMatchesReference pins the hot path — the packed
// node step, the incremental word encoder and the fault-assignment
// signature dedup — against the struct reference (refSuccessors):
// decode, step node structs, assemble every successor State, pack it
// with appendBinary, dedup with a map. Byte-for-byte, order included.
func TestIncrementalEncoderMatchesReference(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Authority: guardian.AuthorityFullShift},
		{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1},
		{Nodes: 6, Authority: guardian.AuthoritySmallShift, MaxOutOfSlot: 1},
	} {
		m := mustModel(t, cfg)
		fast := m.newExpander()
		states := collectLevels(t, m, fast, 4)
		for _, s := range states {
			got := fast.Successors(s)
			want := m.refSuccessors(s, false)
			if len(got) != len(want) {
				t.Fatalf("cfg %+v state %x: %d successors, reference %d", cfg, s, len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Fatalf("cfg %+v state %x successor %d: got %x, reference %x", cfg, s, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPropertyBytesMatchesProperty: the nibble-probing byte invariant and
// the decoding string invariant agree on every reachable transition of
// the failing (full-shifting) model — including the violating ones.
func TestPropertyBytesMatchesProperty(t *testing.T) {
	m := mustModel(t, Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	strInv := m.Property()
	byteInv := m.PropertyBytes()
	e := m.newExpander()
	states := collectLevels(t, m, e, 6)
	checked := 0
	for _, s := range states {
		for _, succ := range e.Successors(s) {
			want := strInv(mc.State(s), mc.State(succ))
			if got := byteInv(s, succ); got != want {
				t.Fatalf("PropertyBytes(%x -> %x) = %v, Property = %v", s, succ, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no transitions checked")
	}
	// The shallow walk above only sees holding transitions; cover the
	// violating side with the checker's own counterexample.
	res, err := mc.CheckTransitionInvariantBytes(m, byteInv, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || len(res.Counterexample) < 2 {
		t.Fatalf("expected a counterexample, got holds=%v len=%d", res.Holds, len(res.Counterexample))
	}
	from := res.Counterexample[len(res.Counterexample)-2]
	to := res.Counterexample[len(res.Counterexample)-1]
	if strInv(from, to) || byteInv([]byte(from), []byte(to)) {
		t.Errorf("counterexample transition not judged violating by both forms: Property=%v PropertyBytes=%v",
			strInv(from, to), byteInv([]byte(from), []byte(to)))
	}
}

// stringOracleCheck is an independent serial BFS over a string-keyed
// visited map — the pre-packed-engine semantics, reimplemented without
// any engine code — used to cross-check the checker on the real model.
func stringOracleCheck(m *Model, inv mc.TransitionInvariant) (mc.Result, []mc.State) {
	type rec struct {
		parent    mc.State
		hasParent bool
	}
	visited := map[mc.State]rec{}
	trace := func(s mc.State) []mc.State {
		var rev []mc.State
		for {
			rev = append(rev, s)
			r := visited[s]
			if !r.hasParent {
				break
			}
			s = r.parent
		}
		out := make([]mc.State, len(rev))
		for i := range rev {
			out[len(rev)-1-i] = rev[i]
		}
		return out
	}
	var res mc.Result
	res.Holds = true
	var frontier []mc.State
	for _, s := range m.Initial() {
		visited[s] = rec{}
		frontier = append(frontier, s)
	}
	for depth := 0; len(frontier) > 0; depth++ {
		var next []mc.State
		for _, s := range frontier {
			for _, succ := range m.Successors(s) {
				res.TransitionsExplored++
				if !inv(s, succ) {
					res.Holds = false
					res.Depth = depth + 1
					res.StatesExplored = len(visited)
					return res, append(trace(s), succ)
				}
				if _, ok := visited[succ]; ok {
					continue
				}
				visited[succ] = rec{parent: s, hasParent: true}
				next = append(next, succ)
			}
		}
		frontier = next
		if len(frontier) > 0 {
			res.Depth = depth + 1
		}
	}
	res.StatesExplored = len(visited)
	return res, nil
}

// TestEngineMatchesStringOracleE1Matrix checks the packed-key engine
// against the string-keyed serial oracle on the full E1 matrix — all
// four coupler authorities, verdicts, counts, depths and counterexample
// traces — at workers 1, 2 and 8.
func TestEngineMatchesStringOracleE1Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("E1 oracle sweep skipped with -short")
	}
	authorities := []guardian.Authority{
		guardian.AuthorityPassive,
		guardian.AuthorityTimeWindows,
		guardian.AuthoritySmallShift,
		guardian.AuthorityFullShift,
	}
	for _, a := range authorities {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			m := mustModel(t, Config{Authority: a})
			want, wantTrace := stringOracleCheck(m, m.Property())
			for _, workers := range []int{1, 2, 8} {
				// The string oracle enumerates concrete states, so the
				// engine must run in oracle mode too; reduced-vs-oracle
				// equivalence is covered by canon_test.go.
				res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(),
					mc.Options{Workers: workers, NoReduce: true})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Holds != want.Holds ||
					res.StatesExplored != want.StatesExplored ||
					res.TransitionsExplored != want.TransitionsExplored ||
					res.Depth != want.Depth {
					t.Errorf("workers=%d: engine holds=%v states=%d transitions=%d depth=%d; oracle holds=%v states=%d transitions=%d depth=%d",
						workers, res.Holds, res.StatesExplored, res.TransitionsExplored, res.Depth,
						want.Holds, want.StatesExplored, want.TransitionsExplored, want.Depth)
				}
				if !reflect.DeepEqual(res.Counterexample, wantTrace) {
					t.Errorf("workers=%d: counterexample differs from oracle (len %d vs %d)",
						workers, len(res.Counterexample), len(wantTrace))
				}
			}
		})
	}
}

// fuzzSuccessorConfig derives a model configuration from fuzzed bits,
// one mixed-radix digit per axis: 2–7 nodes, 1–3 couplers, the four
// authorities, the option flags, a replay budget of 0–2, a data-slot set
// and, half the time, per-coupler fault masks.
func fuzzSuccessorConfig(bits uint64) Config {
	take := func(n uint64) uint64 {
		v := bits % n
		bits /= n
		return v
	}
	cfg := Config{
		Nodes:             2 + int(take(6)),
		Couplers:          1 + int(take(3)),
		Authority:         guardian.AuthorityPassive + guardian.Authority(take(4)),
		AllowHostStates:   take(2) == 1,
		AllowInitFreeze:   take(2) == 1,
		DisableBigBang:    take(2) == 1,
		NoColdStartReplay: take(2) == 1,
		MaxOutOfSlot:      int(take(3)),
	}
	for s := 1; s <= cfg.Nodes; s++ {
		if take(4) == 0 {
			cfg.DataSlots = append(cfg.DataSlots, s)
		}
	}
	if take(2) == 1 {
		for c := 0; c < cfg.Couplers; c++ {
			cfg.CouplerFaults = append(cfg.CouplerFaults, FaultSet(take(8)))
		}
	}
	return cfg
}

// anyPhaseState reads a packed state of m out of raw (zero-extended or
// truncated to the encoding width) with every field within its packed
// width. Phase nibbles past the modeled phases fold onto them; phase 0
// stays, so the unknown-phase path is exercised too.
func anyPhaseState(m *Model, raw []byte) []byte {
	enc := make([]byte, binarySize(m.Config().Nodes, m.Config().Couplers))
	copy(enc, raw)
	s := m.DecodeBinary(mc.State(enc))
	for i := range s.Nodes {
		if p := s.Nodes[i].Phase; p > PhaseDownload {
			s.Nodes[i].Phase = p%PhaseDownload + 1
		}
	}
	return m.appendBinary(nil, &s)
}

// FuzzSuccessors: on any in-range packed state of any fuzzed model the
// packed Successors — oracle and reduced expander — writes exactly the
// struct reference's successor list, in order, and allocates nothing once
// warm; explain reports the reference's StepInfo for successors and
// rejects a non-successor.
func FuzzSuccessors(f *testing.F) {
	for _, bits := range []uint64{0, 1, 3, 5, 17, 100, 4321, 98765, 1 << 20, 123456789} {
		m, err := New(fuzzSuccessorConfig(bits))
		if err != nil {
			f.Fatal(err)
		}
		// A narrow walk: the last successor of the first state, six
		// levels deep, each level's first and last state a seed.
		e := m.newExpander()
		s := []byte(m.Initial()[0])
		for d := 0; d < 6; d++ {
			succs := e.Successors(s)
			f.Add(bits, slices.Clone(succs[0]))
			s = slices.Clone(succs[len(succs)-1])
			f.Add(bits, s)
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, raw []byte) {
		cfg := fuzzSuccessorConfig(bits)
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		in := anyPhaseState(m, raw)
		for _, e := range []*Expander{m.newExpander(), m.NewReducedExpander().(*Expander)} {
			got := e.Successors(in)
			want := m.refSuccessors(in, e.reduce)
			if len(got) != len(want) {
				t.Fatalf("%+v reduce=%v: Successors(%x) has %d states, reference %d\nstate %v",
					cfg, e.reduce, in, len(got), len(want), m.Decode(mc.State(in)))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%+v reduce=%v: Successors(%x)[%d] = %x, reference %x\nstate %v",
						cfg, e.reduce, in, i, got[i], want[i], m.Decode(mc.State(in)))
				}
			}
			if allocs := testing.AllocsPerRun(2, func() { e.Successors(in) }); allocs != 0 {
				t.Fatalf("%+v reduce=%v: Successors(%x) allocates: %.1f allocs/op", cfg, e.reduce, in, allocs)
			}
		}

		e := m.newExpander()
		succs := m.refSuccessors(in, false)
		// Explain a spread of at most 16 successors: the reference
		// explain re-enumerates every choice combination.
		for i := 0; i < len(succs); i += 1 + len(succs)/16 {
			got, ok := e.explain(in, succs[i])
			want, wok := m.refExplain(in, succs[i])
			if !ok || !wok || got != want {
				t.Fatalf("%+v: explain(%x -> %x) = %+v %v, reference %+v %v",
					cfg, in, succs[i], got, ok, want, wok)
			}
		}
		seen := map[string]bool{}
		for _, s := range succs {
			seen[string(s)] = true
		}
		non := slices.Clone(succs[0])
		for bit := 0; bit < 8*len(non); bit++ {
			non[bit/8] ^= 0x80 >> (bit % 8)
			if !seen[string(non)] {
				if info, ok := e.explain(in, non); ok {
					t.Fatalf("%+v: explain accepted non-successor %x of %x: %+v", cfg, non, in, info)
				}
				if _, ok := m.refExplain(in, non); ok {
					t.Fatalf("%+v: reference explain accepted non-successor %x of %x", cfg, non, in)
				}
				break
			}
			non[bit/8] ^= 0x80 >> (bit % 8)
		}
	})
}

// successorSink keeps BenchmarkSuccessors' result live.
var successorSink [][]byte

// BenchmarkSuccessors times one reduced-expander Successors call per op
// over BenchmarkCanonicalize's corpus — the expand layer on its own. One
// warm pass first grows the scratch to its high-water mark, so even a
// single timed op reports the steady state's zero allocations.
func BenchmarkSuccessors(b *testing.B) {
	m, corpus := canonCorpus()
	e := m.NewReducedExpander().(*Expander)
	for _, s := range corpus {
		e.Successors(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		successorSink = e.Successors(corpus[i%len(corpus)])
	}
}
