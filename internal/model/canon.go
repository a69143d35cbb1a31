package model

// State-space reduction: a canonical representative function over the
// packed encoding, plus the reduced Expander mode that pairs with it.
//
// The §5.1 property is per-role — it reads node phases only — and for
// every coupler authority except full shifting the model's state carries
// components that provably cannot influence any phase a node will ever
// reach. The canonicalizer maps each state to a fixed representative of
// its equivalence class; the checker then explores the quotient instead
// of the concrete space. Three collapses compose (soundness argument in
// DESIGN.md "State-space reduction"):
//
//  1. Dead coupler tail. The buffered frame and out-of-slot counter are
//     read only by the out-of-slot replay fault, which exists only for
//     full-shifting couplers (guardian.CanBufferFrames). Under every
//     other authority the tail is write-only state: reset it to the
//     empty value.
//  2. Freeze → init collapse. A frozen node's only choices are to stay
//     frozen or re-initialize; an init node may stay or enter listen.
//     Both are silent (no frames, no influence on other nodes), and
//     every behaviour available from freeze is available from init one
//     step sooner. Mapping freeze records to fresh init records yields a
//     quotient whose successor images are exactly preserved.
//  3. Deterministic fast-forward. In a state where every node is in
//     listen or cold_start, every permitted fault assignment produces
//     the same successor modulo the dead tail: a single faulty coupler
//     cannot suppress a cold-start frame (the other channel still
//     carries it), listeners ignore bad frames, and a bad frame on a
//     silent bus is judged null. The masked successor chain is therefore
//     a deterministic stutter sequence, and the whole chain collapses to
//     a single representative: the last all-{listen, cold_start} state
//     when the chain exits the region — the exit transition is left to
//     the checker, so property checks on it are unaffected — or, when
//     the chain never exits, the minimal-encoding state of the cycle it
//     settles into (such silent livelocks are real: N simultaneous cold
//     starters collide every round and rotate forever). Either way no
//     state inside the chain has an integrated node, so the §5.1
//     property is vacuous across everything skipped.
//
// The quotient is valid only when the coupler tail is dead and the
// phase graph has no host-state detours (a freeze → await/test choice
// has no init counterpart); Reducible gates on exactly that. The
// reduction preserves verdicts and — via the checker's decanonicalization
// pass — concrete counterexample traces; it does not preserve BFS depth
// (fast-forwarding collapses startup time), which is why the published
// E1 matrix numbers are reported in oracle mode.

import (
	"slices"

	"ttastar/internal/mc"
)

var _ mc.ReducibleModel = (*Model)(nil)

// Reducible implements mc.ReducibleModel: the quotient applies when the
// coupler tail is dead (no out-of-slot replay, so no authority below
// full shifting ever reads its buffers), the host-state detours are
// off (freeze → await/test has no init-side counterpart, so the
// freeze → init collapse would lose behaviours), and at least two
// redundant channels exist — the fast-forward fault-invisibility lemma
// needs a second coupler to carry the frame a single faulty coupler
// suppresses, so 1-coupler models always explore the concrete space.
func (m *Model) Reducible() bool {
	return !m.cfg.Authority.CanBufferFrames() && !m.cfg.AllowHostStates && m.cfg.Couplers >= 2
}

// NewReducedExpander implements mc.ReducibleModel: a per-worker expander
// whose fault-assignment filter works modulo the reduction's observable
// projection, paired with the in-place canonicalizer. Successor
// enumeration itself stays concrete — the engine checks the invariant on
// raw successors first and canonicalizes before claiming.
func (m *Model) NewReducedExpander() mc.CanonicalExpander {
	e := m.newExpander()
	e.reduce = m.Reducible()
	return e
}

// Canonicalize returns the canonical representative of enc's reduction
// class; enc itself when the configuration is not Reducible. It is the
// allocating convenience form of Expander.Canonicalize for tests and
// trace tooling.
func (m *Model) Canonicalize(enc mc.State) mc.State {
	e := m.expanders.Get().(*Expander)
	buf := append(make([]byte, 0, len(enc)), enc...)
	e.Canonicalize(buf)
	m.expanders.Put(e)
	return mc.State(buf)
}

// ffCap bounds the fast-forward chain walk. Reachable silent chains are
// short — a full listen-timeout countdown plus a couple of cold-start
// rounds, well under a hundred slots — but the walk must terminate on
// any input bytes, and truncating merely yields a finer (still sound)
// quotient: the truncated representative is still a deterministic
// function of the input state. Jumped steps count in full.
const ffCap = 1024

// Canonicalize rewrites enc in place to its class representative. It
// works in the packed domain throughout: the dead tail is one masked
// overwrite with the Model's precomputed empty tail, a frozen node's
// 20-bit record is overwritten with the init record, and the
// fast-forward of an all-{listen, cold_start} state steps the node
// records as words and writes back the ones that moved. Nothing is
// decoded into structs and nothing is allocated. enc must not alias a
// state the caller still needs in concrete form.
func (e *Expander) Canonicalize(enc []byte) {
	m := e.m
	if !m.Reducible() {
		return
	}
	m.checkBinarySize(enc)
	n := m.cfg.Nodes
	allLC := true
	for i := 0; i < n; i++ {
		switch Phase(phaseBits(enc, i)) {
		case PhaseFreeze:
			putNodeBits(enc, i, initWord)
			allLC = false
		case PhaseListen, PhaseColdStart:
		default:
			allLC = false
		}
	}
	if allLC {
		var words chainWords
		for i := 0; i < n; i++ {
			words[i] = nodeBits(enc, i)
		}
		ff := m.fastForward(words)
		for i := 0; i < n; i++ {
			if ff[i] != words[i] {
				putNodeBits(enc, i, ff[i])
			}
		}
	}
	m.tail.put(enc)
}

// emptyTail is a Model's packed empty coupler/out-of-slot tail: FrameNone
// with id 0 per coupler, out-of-slot count 0, zero padding. It covers
// bits [20·N, 8·size) of the encoding, which start on a nibble boundary.
type emptyTail struct {
	from, to int             // byte range of enc the tail touches
	mask     [candBytes]byte // tail bits within each byte of the range
	val      [candBytes]byte // their encoded empty value
}

// newEmptyTail derives the empty tail from the reference encoder, so the
// masked overwrite is byte-identical to re-encoding with a cleared tail.
func (m *Model) newEmptyTail() emptyTail {
	s := State{Nodes: make([]NodeState, m.cfg.Nodes)}
	for c := 0; c < m.cfg.Couplers; c++ {
		s.Couplers[c] = CouplerState{BufferedKind: FrameNone}
	}
	enc := m.appendBinary(nil, &s)
	bit := bitsPerNode * m.cfg.Nodes
	t := emptyTail{from: bit >> 3, to: len(enc)}
	for i := t.from; i < t.to; i++ {
		t.mask[i] = 0xFF
	}
	if bit&7 != 0 {
		t.mask[t.from] = 0x0F // the high nibble is the last node's
	}
	for i := t.from; i < t.to; i++ {
		t.val[i] = enc[i] & t.mask[i]
	}
	return t
}

// put overwrites enc's tail bits with the empty tail.
func (t *emptyTail) put(enc []byte) {
	for i := t.from; i < t.to; i++ {
		enc[i] = enc[i]&^t.mask[i] | t.val[i]
	}
}

// chainWords holds a silent chain state's node records, by value;
// entries past the model's node count stay zero.
type chainWords [maxNodes]uint32

// fastForward chases the deterministic masked chain from the
// all-{listen, cold_start} node records cur (entries past the model's
// node count are zero) until it exits the region — returning the last
// in-region records, whose exit transition the checker then explores
// normally — or, when the chain settles into an in-region cycle, returns
// the cycle's minimal-encoding records. Both outcomes are fixed points of
// the procedure, which makes Canonicalize idempotent. The tail is dead
// on the chain, so the walk carries node records only, by value.
//
// Most of a silent chain is plain steps: nobody sends, so listeners
// count their timeouts down and cold starters advance their slots, and
// nothing else moves (silentStretch). The walk jumps each such stretch
// in one closed-form update, then takes the step that ends it one slot
// at a time. The jumped states are all in-region, so exit detection is
// exact, and Brent's cycle detection runs on the jumped orbit — a
// subsequence of the stepwise one, so a cycle it finds is the chain's
// cycle. The cycle's minimum is then found by single-stepping the cycle
// back to its start, because a jump would skip candidates. Records
// compare in encoding order: the encoding is the node words back to
// back, MSB-first, so comparing word by word compares the node bits.
func (m *Model) fastForward(cur chainWords) chainWords {
	// Brent's cycle detection over the jumped chain: the tortoise holds
	// a checkpoint at the last power of two, the chain itself is the
	// hare. An exit at any point wins immediately. A jump is clamped at
	// ffCap, so a truncated walk stops on the state the stepwise walk
	// would have stopped on.
	tort := cur
	lam, power := 0, 1
	for steps := 0; ; {
		if k := min(m.silentStretch(&cur), ffCap-steps); k > 0 {
			m.jumpSilent(&cur, k)
			steps += k
		}
		if steps >= ffCap {
			return cur
		}
		next := cur
		if !m.silentStep(&next) {
			return cur // chain exits the region: keep the last state inside
		}
		steps++
		cur = next
		lam++
		if cur == tort {
			break // cur lies on the chain's cycle
		}
		if lam == power {
			tort = cur
			power *= 2
			lam = 0
		}
	}

	// Walk the cycle once, slot by slot, and keep its minimal encoding —
	// the one representative every chain feeding this cycle agrees on.
	// The tails are equal, so the minimal encoding is the minimal
	// sequence of node words. A detected cycle stays in-region, and it
	// is at most ffCap steps long, or the walk above could not have
	// closed it.
	best := cur
	for i := 0; i < ffCap; i++ {
		m.silentStep(&cur)
		if cur == tort {
			return best
		}
		if slices.Compare(cur[:], best[:]) < 0 {
			best = cur
		}
	}
	panic("model: fast-forward cycle did not return to its start")
}

// silentStretch returns how many plain steps the silent chain takes
// from the records: steps in which no node sends, no listener times out
// and no cold starter reaches its own slot, so each listener's timeout
// drops by one, each cold starter's slot advances by one, and nothing
// else changes (counters are judged null on a silent bus, and big_bang
// and the phases hold). A listener with timeout t has t plain steps
// left; a cold starter d slots short of its own has d−1. The result is
// 0 when some cold starter holds its own slot — its frame is on the bus.
func (m *Model) silentStretch(words *chainWords) int {
	k := ffCap
	for i, w := range words[:m.cfg.Nodes] {
		if wordPhase(w) == PhaseListen {
			k = min(k, int(w&timeoutMask))
			continue
		}
		own := uint8(i + 1)
		slot := wordSlot(w)
		if slot == own {
			return 0
		}
		k = min(k, m.slotsUntil(slot, own)-1)
	}
	return k
}

// slotsUntil is how many nextSlot steps take slot s to own (s != own).
// Slots outside 1..N wrap to 1 on their first step.
func (m *Model) slotsUntil(s, own uint8) int {
	if int(s) > m.cfg.Nodes {
		return int(own)
	}
	if own > s {
		return int(own - s)
	}
	return int(own) + m.cfg.Nodes - int(s)
}

// jumpSilent applies k ≥ 1 plain steps (see silentStretch) to the
// records in one update.
func (m *Model) jumpSilent(words *chainWords, k int) {
	n := m.cfg.Nodes
	for i, w := range words[:n] {
		if wordPhase(w) == PhaseListen {
			words[i] = w - uint32(k) // timeout ≥ k: the low field cannot borrow
			continue
		}
		s := int(wordSlot(w))
		if s > n {
			s = 0 // nextSlot wraps an out-of-range slot to 1, as it does 0
		}
		words[i] = w&^slotMask | uint32((s-1+k)%n+1)<<shiftSlot
	}
}

// silentStep advances all-{listen, cold_start} node records by one slot
// under the fault-free assignment, in place, and reports whether they
// are still inside the all-{listen, cold_start} region. It stops at the
// first node that leaves the region, so on false the records are part
// stepped and the caller discards them. It is the packed
// node step with the fault-free channel summary: every channel carries
// the nominal frame, and one of them summarizes them all. By the
// fault-invisibility lemma (see the package comment above and
// TestSilentRegionFaultInvisibility) this is the unique masked successor
// of the whole fault menu.
func (m *Model) silentStep(words *chainWords) bool {
	n := m.cfg.Nodes
	nominal, activity := m.nominalWords(words[:n])
	var cs chanSum
	cs.add(nominal, activity)
	for i := 0; i < n; i++ {
		// stepWord's dispatch, narrowed to the region's two phases.
		w, own := words[i], uint8(i+1)
		if wordPhase(w) == PhaseListen {
			w = m.stepListenWord(w, own, &cs)
		} else {
			w = m.stepOperationalWord(w, PhaseColdStart, own, &cs)
		}
		if p := wordPhase(w); p != PhaseListen && p != PhaseColdStart {
			return false
		}
		words[i] = w
	}
	return true
}

// reducedFaSignature is faSignature under the reduction's observable
// projection, turning the repeat-skip into a partial-order filter over
// fault assignments: two assignments are equivalent when every consumer
// of their channel outcomes behaves identically modulo the dead tail.
//
//   - A bad frame on a bus with no real activity is judged null by
//     operational nodes and ignored by listeners — observationally the
//     empty channel — so it normalizes to none.
//   - With the buffers dead, the couplers are interchangeable: at most
//     one channel differs from the nominal content (single-fault
//     hypothesis), so every channel of a given real kind carries the
//     identical nominal content, listeners select frames by kind, and
//     judges take the max over channels — the channel tuple sorts.
//     Per-coupler fault masks restrict which assignments are enumerated
//     but not how their outcomes are consumed, so asymmetric channels
//     still sort soundly.
//
// The out-of-slot counter is dropped: it never moves without replay.
// Only reduced-mode expanders use this signature; the oracle mode keeps
// faSignature byte for byte, so published enumeration counts are
// untouched.
func reducedFaSignature(ch [MaxCouplers]Content, nc int, activity bool) uint32 {
	var w [MaxCouplers]uint32
	for c := 0; c < nc; c++ {
		k, id := ch[c].Kind, ch[c].ID
		if !activity && k == FrameBad {
			k, id = FrameNone, 0
		}
		w[c] = uint32(k)<<bitsBufID | uint32(id)
	}
	// Insertion-sort the nc-entry prefix (nc <= 3).
	for i := 1; i < nc; i++ {
		for j := i; j > 0 && w[j-1] > w[j]; j-- {
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
	sig := uint32(0)
	for c := 0; c < nc; c++ {
		sig = sig<<(bitsKind+bitsBufID) | w[c]
	}
	sig <<= 1
	if activity {
		sig |= 1
	}
	return sig
}
