package mc

// Tests for the sealed visited-set tier (sealed.go + visitedSet.seal):
// the delta-compressed entry arena, the quotiented probe index, the
// level-boundary migration itself, the resident-byte audit, and the v5
// checkpoint format that serializes the tier directly.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// sealFixtureState builds a deterministic ~16-byte encoding for id with
// some shared prefix structure (realistic for packed model states, and
// what the delta codec exploits).
func sealFixtureState(level, id int) []byte {
	return []byte(fmt.Sprintf("L%03d/s%08d", level, id))
}

// sealInParallel sends every seal of the calling test through the
// parallel path, whatever its batch size, so small fixtures exercise
// the per-shard workers and the ledger fold.
func sealInParallel(t testing.TB) {
	old := parallelSealMin
	parallelSealMin = 0
	t.Cleanup(func() { parallelSealMin = old })
}

// TestSealMigrationRoundTrip drives the visited set exactly as the
// engine does — claim a level under a base, seal the previous level,
// repeat — and verifies after every boundary that each state (sealed or
// live) still resolves by find, round-trips its bytes, keeps its parent
// chain, and reports duplicate claims as duplicates.
func TestSealMigrationRoundTrip(t *testing.T) {
	sealInParallel(t)
	const levels, perLevel = 12, 90
	v := newVisitedSet(levels*perLevel + 1)
	var pc probeCounter
	sealers := make([]probeCounter, 3) // seals run on three workers

	type rec struct {
		enc    []byte
		parent int // index into all, -1 = none
	}
	var all []rec
	allRefs := []uint32{}
	base := uint64(1)
	var prevLevel, curLevel []uint32

	for l := 0; l < levels; l++ {
		for i := 0; i < perLevel; i++ {
			enc := sealFixtureState(l, i*i%977)
			parent := -1
			var pref uint32
			hasParent := false
			if l > 0 {
				parent = (l-1)*perLevel + i%perLevel
				pref = allRefs[parent]
				hasParent = true
			}
			st, ref := v.claim(enc, hashBytes(enc), pref, base+uint64(i), hasParent, base, &pc)
			if st != claimNew {
				t.Fatalf("level %d state %d: claim = %d, want claimNew", l, i, st)
			}
			all = append(all, rec{enc: enc, parent: parent})
			allRefs = append(allRefs, ref)
			curLevel = append(curLevel, ref)
		}
		// Level boundary: the just-expanded previous level migrates to
		// the sealed tier; every ref the test still holds is rewritten.
		if len(prevLevel) > 0 {
			v.seal(sealers, prevLevel, allRefs, curLevel)
		}
		prevLevel = curLevel
		curLevel = nil
		base += uint64(perLevel) << keySuccBits

		for j, r := range all {
			ref := allRefs[j]
			if got := v.bytesOf(ref); !bytes.Equal(got, r.enc) {
				t.Fatalf("after %d seals: ref %d reads %q, want %q", l, j, got, r.enc)
			}
			fref, ok := v.find(r.enc, hashBytes(r.enc))
			if !ok || fref != ref {
				t.Fatalf("after %d seals: find(%q) = (%d,%v), want (%d,true)", l, r.enc, fref, ok, ref)
			}
			pref, has := v.parentOf(ref)
			if has != (r.parent >= 0) {
				t.Fatalf("after %d seals: ref %d hasParent=%v, want %v", l, j, has, r.parent >= 0)
			}
			if has && pref != allRefs[r.parent] {
				t.Fatalf("after %d seals: ref %d parent %d, want %d", l, j, pref, allRefs[r.parent])
			}
			st, _ := v.claim(r.enc, hashBytes(r.enc), 0, base, false, base, &pc)
			if st != claimDup {
				t.Fatalf("after %d seals: re-claim of %q = %d, want claimDup", l, r.enc, st)
			}
		}
	}

	states, arena, index := v.sealedStats()
	if want := int64((levels - 1) * perLevel); states != want {
		t.Fatalf("sealed states = %d, want %d", states, want)
	}
	if arena <= 0 || index <= 0 {
		t.Fatalf("sealed arena/index bytes = %d/%d, want positive", arena, index)
	}
	// The codec must beat raw storage on this self-similar fixture.
	rawBytes := states * int64(len(sealFixtureState(0, 0)))
	if arena >= rawBytes {
		t.Errorf("sealed arena %dB >= raw %dB: delta compression ineffective", arena, rawBytes)
	}
}

// sealedCollisionState searches for an encoding whose hash collides
// with the target's (shard, initial index cell, quotient remainder)
// triple — the full signature the quotiented index stores. Confirms
// must fall through to the arena decode to tell such states apart.
func sealedCollisionState(id int, pos, rem uint32) []byte {
	for nonce := 0; ; nonce++ {
		enc := []byte(fmt.Sprintf("q%03d/%d", id, nonce))
		h := hashBytes(enc)
		ph := uint32(h >> 32)
		if uint32(h)&(numShards-1) == 0 && ph>>sealedRemShift == rem && ph&(sealedInitialCells-1) == pos {
			return enc
		}
	}
}

// TestSealedIndexCollisionAdversary seals a batch of states that all
// share one shard, one initial probe cell and one stored remainder.
// Every lookup — hit or miss — survives only through the full-key
// confirm, so a false accept or probe-chain break shows up immediately.
func TestSealedIndexCollisionAdversary(t *testing.T) {
	const n = 20 // stays below the 32-cell index's growth threshold
	v := newVisitedSet(n + 1)
	var pc probeCounter
	encs := make([][]byte, n)
	refs := make([]uint32, n)
	for i := range encs {
		encs[i] = sealedCollisionState(i, 7, 21)
		st, ref := v.claim(encs[i], hashBytes(encs[i]), 0, uint64(i+1), false, 1, &pc)
		if st != claimNew {
			t.Fatalf("claim %d = %d, want claimNew", i, st)
		}
		refs[i] = ref
	}
	v.seal([]probeCounter{pc}, refs, refs)
	if states, _, _ := v.sealedStats(); states != n {
		t.Fatalf("sealed %d states, want %d", states, n)
	}
	for i := range encs {
		ref, ok := v.find(encs[i], hashBytes(encs[i]))
		if !ok || ref != refs[i] {
			t.Fatalf("find(%d) = (%d,%v), want (%d,true)", i, ref, ok, refs[i])
		}
		if got := v.bytesOf(refs[i]); !bytes.Equal(got, encs[i]) {
			t.Fatalf("ref %d reads %q, want %q", i, got, encs[i])
		}
	}
	// A state with the same (shard, cell, remainder) signature that was
	// never inserted must not be accepted by the quotient filter.
	ghost := sealedCollisionState(999, 7, 21)
	if ref, ok := v.find(ghost, hashBytes(ghost)); ok {
		t.Fatalf("find(ghost) = (%d,true), want miss", ref)
	}
	if st, _ := v.claim(ghost, hashBytes(ghost), 0, 100, false, 100, &pc); st != claimNew {
		t.Fatalf("claim(ghost) = %d, want claimNew", st)
	}
}

// FuzzSealedTier feeds pseudo-random state populations — arbitrary
// lengths (inline and intern-overflow), shared prefixes, random parent
// edges, random seal batch sizes — through claim/seal and cross-checks
// the sealed tier against a plain map oracle.
func FuzzSealedTier(f *testing.F) {
	sealInParallel(f)
	f.Add(uint64(1), uint8(3), uint8(40))
	f.Add(uint64(0xdeadbeef), uint8(16), uint8(1))
	f.Add(uint64(42), uint8(24), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, maxLen uint8, batch uint8) {
		if maxLen == 0 {
			maxLen = 1
		}
		if batch == 0 {
			batch = 1
		}
		const n = 600
		v := newVisitedSet(n + 1)
		var pc probeCounter
		sealers := make([]probeCounter, 1+int(batch%4))

		rng := seed
		next := func() uint64 { // splitmix64
			rng += 0x9e3779b97f4a7c15
			z := rng
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9fe
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}

		type rec struct {
			enc    []byte
			parent int
		}
		var all []rec
		var refs []uint32
		var pending []uint32 // claimed since the last seal
		oracle := map[string]int{}
		key := uint64(1)

		for i := 0; i < n; i++ {
			l := int(next()%uint64(maxLen)) + 1
			enc := make([]byte, l)
			// Shared-prefix populations stress the delta codec; fully
			// random ones stress the restart path.
			copy(enc, "prefix/prefix/prefix/prefix")
			for j := l - 1; j >= 0 && j >= l-3; j-- {
				enc[j] = byte(next())
			}
			if _, dup := oracle[string(enc)]; dup {
				continue
			}
			parent := -1
			var pref uint32
			hasParent := false
			if len(refs) > 0 && next()%4 != 0 {
				parent = int(next() % uint64(len(refs)))
				pref = refs[parent]
				hasParent = true
			}
			st, ref := v.claim(enc, hashBytes(enc), pref, key, hasParent, key, &pc)
			if st != claimNew {
				t.Fatalf("claim %q = %d, want claimNew", enc, st)
			}
			key++
			oracle[string(enc)] = len(all)
			all = append(all, rec{enc: enc, parent: parent})
			refs = append(refs, ref)
			pending = append(pending, ref)
			if len(pending) >= int(batch) {
				v.seal(sealers, pending, refs)
				pending = pending[:0]
			}
		}
		if len(pending) > 0 {
			v.seal(sealers, pending, refs)
		}

		states, _, _ := v.sealedStats()
		if states != int64(len(all)) {
			t.Fatalf("sealed %d states, want %d", states, len(all))
		}
		for j, r := range all {
			ref, ok := v.find(r.enc, hashBytes(r.enc))
			if !ok || ref != refs[j] {
				t.Fatalf("find(%q) = (%d,%v), want (%d,true)", r.enc, ref, ok, refs[j])
			}
			if got := v.bytesOf(ref); !bytes.Equal(got, r.enc) {
				t.Fatalf("ref %d reads %q, want %q", j, got, r.enc)
			}
			pref, has := v.parentOf(ref)
			if has != (r.parent >= 0) || (has && pref != refs[r.parent]) {
				t.Fatalf("ref %d parent = (%d,%v), want (%v,%v)", j, pref, has, r.parent, r.parent >= 0)
			}
			if st, _ := v.claim(r.enc, hashBytes(r.enc), 0, key, false, key, &pc); st != claimDup {
				t.Fatalf("re-claim of %q = %d, want claimDup", r.enc, st)
			}
		}
		// The checked decoder must sweep every shard cleanly end to end.
		var d sealedDecoder
		maxEnc := int(maxLen) + 1
		for s := range v.shards {
			ss := &v.shards[s].sealed
			if ss.count == 0 {
				continue
			}
			d.startAt(ss, 0, v.parentIsRef)
			for d.ord < ss.count {
				if err := d.stepChecked(maxEnc); err != nil {
					t.Fatalf("shard %d ord %d: %v", s, d.ord, err)
				}
			}
			if d.off != len(ss.blob) {
				t.Fatalf("shard %d: decode consumed %d of %d blob bytes", s, d.off, len(ss.blob))
			}
		}
	})
}

// TestSealNoSealEquivalence runs the same searches with the sealed tier
// on and off: verdict, counts, depth and the full counterexample must
// be identical, and the sealed run must not exceed the unsealed peak.
func TestSealNoSealEquivalence(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options) (Result, error)
		viol bool
		// Fixed per-shard overheads (seal scratch, quotient index)
		// only amortize on real populations; tiny early-stop searches
		// skip the peak comparison.
		wantSmaller bool
	}{
		{"collision-holds", func(o Options) (Result, error) {
			return CheckTransitionInvariant(collisionModel{n: 3000},
				func(from, to State) bool { return true }, o)
		}, false, true},
		{"diamond-violation", func(o Options) (Result, error) {
			return CheckTransitionInvariant(diamondModel{k: 30},
				func(from, to State) bool { return to != encodeXY(17, 17) }, o)
		}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sealedStats, plainStats Stats
			for _, w := range workerCounts {
				sealedRes, err1 := tc.run(Options{Workers: w, Stats: func(s Stats) { sealedStats = s }})
				plainRes, err2 := tc.run(Options{Workers: w, NoSeal: true, Stats: func(s Stats) { plainStats = s }})
				if err1 != nil || err2 != nil {
					t.Fatalf("workers=%d: errs %v / %v", w, err1, err2)
				}
				if !equalResults(sealedRes, plainRes) {
					t.Fatalf("workers=%d: sealed %+v != unsealed %+v", w, sealedRes, plainRes)
				}
				if sealedRes.Holds == tc.viol {
					t.Fatalf("workers=%d: verdict %v, want violation=%v", w, sealedRes.Holds, tc.viol)
				}
				if sealedStats.SealedStates == 0 {
					t.Fatalf("workers=%d: sealed run reports no sealed states", w)
				}
				if plainStats.SealedStates != 0 {
					t.Fatalf("workers=%d: NoSeal run reports %d sealed states", w, plainStats.SealedStates)
				}
				if tc.wantSmaller && sealedStats.PeakResidentBytes > plainStats.PeakResidentBytes {
					t.Errorf("workers=%d: sealed peak %d > unsealed peak %d", w,
						sealedStats.PeakResidentBytes, plainStats.PeakResidentBytes)
				}
			}
		})
	}
}

// TestResidentAccountingMemStats cross-checks the visited set's
// self-reported resident bytes against the Go heap: claim and seal a
// population large enough to dwarf fixture noise, then require the
// counted footprint to sit within tolerance of the measured growth.
// Catches both double-counting (counted >> measured) and unaccounted
// structures (counted << measured).
func TestResidentAccountingMemStats(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB allocation cross-check")
	}
	sealInParallel(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const n = 120000
	v := newVisitedSet(n + 1)
	var pc probeCounter
	sealers := make([]probeCounter, 2)
	var enc [24]byte // > inlineStateBytes: every claim exercises the intern table too
	var pending []uint32
	for i := 0; i < n; i++ {
		b := enc[:16+i%9]
		copy(b, "memaudit")
		b[8] = byte(i)
		b[9] = byte(i >> 8)
		b[10] = byte(i >> 16)
		b[11] = byte(i % 7)
		st, ref := v.claim(b, hashBytes(b), 0, uint64(i+1), false, 1, &pc)
		if st != claimNew {
			t.Fatalf("claim %d = %d, want claimNew", i, st)
		}
		pending = append(pending, ref)
		if len(pending) == 4096 {
			v.seal(sealers, pending)
			pending = pending[:0]
		}
	}
	v.seal(sealers, pending)

	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := int64(after.HeapInuse) - int64(before.HeapInuse)
	counted := v.resident.Load()
	runtime.KeepAlive(v)

	if counted <= 0 || measured <= 0 {
		t.Fatalf("degenerate measurement: counted=%d measured=%d", counted, measured)
	}
	// The one documented approximation is arena slack (blob counted by
	// len, allocated by cap: ≤ 25% + a 4KiB floor), so counted may sit
	// below measured; HeapInuse granularity and test-held slices push
	// the other way. Either way the two must stay the same magnitude.
	ratio := float64(counted) / float64(measured)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("resident accounting %d vs heap growth %d (ratio %.2f) outside [0.5, 1.5]",
			counted, measured, ratio)
	}
}

// interruptSealed runs a diamond search canceled after cutAt levels,
// flushing a checkpoint to path, and returns the checkpoint file bytes.
func interruptSealed(t *testing.T, k, cutAt int, path string, noSeal bool) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := CheckTransitionInvariant(diamondModel{k: k},
		func(from, to State) bool { return true },
		Options{
			Context:        ctx,
			NoSeal:         noSeal,
			CheckpointPath: path,
			Progress:       cancelAfterLevels(cutAt, cancel),
		})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointV5RoundTrip: sealed and unsealed searches cut at the
// same level both write the one engine format. The unsealed file has
// empty arenas and carries every visited state live; the sealed file
// carries only the frontier live and is smaller. Header and frontier
// (encodings and claim keys) agree.
func TestCheckpointV5RoundTrip(t *testing.T) {
	dir := t.TempDir()
	pSealed := filepath.Join(dir, "sealed")
	pPlain := filepath.Join(dir, "plain")
	dSealed := interruptSealed(t, 40, 10, pSealed, false)
	dPlain := interruptSealed(t, 40, 10, pPlain, true)
	for _, d := range [][]byte{dSealed, dPlain} {
		if v := d[len(checkpointMagic)]; uint64(v) != snapshotVersion {
			t.Fatalf("checkpoint version = %d, want %d", v, snapshotVersion)
		}
	}
	if len(dSealed) >= len(dPlain) {
		t.Errorf("sealed file %dB not smaller than unsealed %dB", len(dSealed), len(dPlain))
	}

	sealed, err := readSnapshot(pSealed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := readSnapshot(pPlain)
	if err != nil {
		t.Fatal(err)
	}
	if sealed.depth != plain.depth || sealed.resultDepth != plain.resultDepth ||
		sealed.transitions != plain.transitions || sealed.nextBase != plain.nextBase {
		t.Fatalf("headers differ: sealed %+v, unsealed %+v", sealed, plain)
	}
	if len(sealed.live) != sealed.frontier {
		t.Fatalf("sealed live tier holds %d entries, frontier %d", len(sealed.live), sealed.frontier)
	}
	sealedCount := 0
	for i := range plain.shards {
		if plain.shards[i].count != 0 {
			t.Fatalf("unsealed snapshot has %d sealed entries in shard %d", plain.shards[i].count, i)
		}
		sealedCount += int(sealed.shards[i].count)
	}
	if len(plain.live) != sealedCount+len(sealed.live) {
		t.Fatalf("unsealed live tier %d, want every visited state (%d)", len(plain.live), sealedCount+len(sealed.live))
	}
	tail := plain.live[len(plain.live)-plain.frontier:]
	if len(tail) != len(sealed.live) {
		t.Fatalf("frontiers differ in size: %d vs %d", len(tail), len(sealed.live))
	}
	for i := range tail {
		if !bytes.Equal(tail[i].enc, sealed.live[i].enc) || tail[i].key != sealed.live[i].key {
			t.Fatalf("frontier[%d] differs: %q/%d vs %q/%d", i, tail[i].enc, tail[i].key, sealed.live[i].enc, sealed.live[i].key)
		}
	}
}

// TestCheckpointV5CorruptionDetected: every single-byte flip of a v5
// file must be rejected.
func TestCheckpointV5CorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	data := interruptSealed(t, 14, 6, path, false)
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(path); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at byte %d: got %v, want ErrBadCheckpoint", i, err)
		}
	}
	for _, n := range []int{0, 1, len(checkpointMagic), len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(path); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrBadCheckpoint", n, err)
		}
	}
}

// TestSealedSnapStructuralCorruption mutates a parsed v5 snapshot past
// the checksum — a truncated arena, a parent ref aimed past every
// restored entry or at a live entry restored after its child, claim
// keys out of order or at the minted base, a delta mask bit past the
// encoding — and requires restoreSealed to reject rather than
// mis-decode.
func TestSealedSnapStructuralCorruption(t *testing.T) {
	dir := t.TempDir()
	sealedPath := filepath.Join(dir, "sealed")
	plainPath := filepath.Join(dir, "plain")
	interruptSealed(t, 20, 8, sealedPath, false)
	interruptSealed(t, 20, 8, plainPath, true)

	check := func(name, path string, mutate func(*sealedSnap)) {
		t.Helper()
		s5, err := readSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(s5.live) < 2 {
			t.Fatal("fixture has fewer than two live entries")
		}
		mutate(s5)
		v := newVisitedSet(1 << 20)
		if _, err := v.restoreSealed(s5); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: restoreSealed returned %v, want ErrBadCheckpoint", name, err)
		}
	}

	check("truncated-blob", sealedPath, func(s5 *sealedSnap) {
		for i := range s5.shards {
			if n := len(s5.shards[i].blob); n > 1 {
				s5.shards[i].blob = s5.shards[i].blob[:n-1]
				return
			}
		}
		t.Fatal("fixture has no sealed blob to truncate")
	})
	check("dangling-parent", sealedPath, func(s5 *sealedSnap) {
		s5.live[0].pw = uint64(makeRef(0, maxOrdinal)) + 1
	})
	check("key-past-base", sealedPath, func(s5 *sealedSnap) {
		s5.live[len(s5.live)-1].key = s5.nextBase
	})
	check("keys-out-of-order", sealedPath, func(s5 *sealedSnap) {
		s5.live[0].key, s5.live[1].key = s5.live[1].key, s5.live[0].key
	})
	check("parent-after-child", plainPath, func(s5 *sealedSnap) {
		// Aim the first child's parent at the last live entry: a live
		// ref the restore has not reached yet.
		last := len(s5.live) - 1
		h := hashBytes(s5.live[last].enc)
		var pos uint32
		for _, le := range s5.live[:last] {
			if hashBytes(le.enc)&(numShards-1) == h&(numShards-1) {
				pos++
			}
		}
		for i := range s5.live {
			if s5.live[i].pw != 0 {
				s5.live[i].pw = uint64(makeRef(uint32(h&(numShards-1)), pos)) + 1
				return
			}
		}
		t.Fatal("fixture has no live parent to corrupt")
	})

	// A delta record's mask naming a byte past its encoding, in a file
	// whose checksum was recomputed: the set-bit decoder would index
	// past the encoding on the first lookup reaching that record, so the
	// restore must refuse it, and a resume must leave the file intact.
	strayPath := filepath.Join(dir, "stray")
	stray := strayMaskBitSnapshot(t, strayPath)
	check("stray-mask-bit", strayPath, func(*sealedSnap) {})
	_, err := CheckTransitionInvariant(diamondModel{k: 20}, func(from, to State) bool { return true },
		Options{ResumePath: strayPath, CheckpointPath: strayPath})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("stray-mask-bit: resume returned %v, want ErrBadCheckpoint", err)
	}
	if after, err := os.ReadFile(strayPath); err != nil || !bytes.Equal(after, stray) {
		t.Errorf("stray-mask-bit: resume modified or removed the rejected file (err %v)", err)
	}
}

// TestResumeSealedUnderNoSeal: a sealed search's snapshot resumes with
// sealing disabled — the restored arenas stay sealed, everything after
// them stays live — and the result equals the clean run's.
func TestResumeSealedUnderNoSeal(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	for _, w := range workerCounts {
		interruptSealed(t, 40, 10, path, false)
		resumed, err := CheckTransitionInvariant(m, inv, Options{Workers: w, NoSeal: true, ResumePath: path, CheckpointPath: path})
		if err != nil {
			t.Fatalf("workers=%d: sealed snapshot resumed under NoSeal: %v", w, err)
		}
		if !equalResults(resumed, clean) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, resumed, clean)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("workers=%d: checkpoint not removed after conclusive resume", w)
		}
	}
}

// TestNoSealInterruptResume: an unsealed search cut and resumed through
// the one engine format equals the clean unsealed run at every worker
// count — result, no sealed states, same peak resident bytes. Resumed
// with sealing on, the same snapshot seals its finished levels at once
// and ends exactly where a clean sealed run does.
func TestNoSealInterruptResume(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	run := func(opts Options) (Result, Stats) {
		t.Helper()
		var st Stats
		opts.Stats = func(s Stats) { st = s }
		res, err := CheckTransitionInvariant(m, inv, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	cleanPlain, plainStats := run(Options{NoSeal: true})
	cleanSealed, sealedStats := run(Options{})
	path := filepath.Join(t.TempDir(), "cp")
	for _, w := range workerCounts {
		interruptSealed(t, 40, 10, path, true)
		res, st := run(Options{Workers: w, NoSeal: true, ResumePath: path})
		if !equalResults(res, cleanPlain) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, res, cleanPlain)
		}
		if st.SealedStates != 0 {
			t.Fatalf("workers=%d: resumed NoSeal run sealed %d states", w, st.SealedStates)
		}
		if st.PeakResidentBytes != plainStats.PeakResidentBytes {
			t.Errorf("workers=%d: resumed peak resident %d, clean %d", w, st.PeakResidentBytes, plainStats.PeakResidentBytes)
		}

		res, st = run(Options{Workers: w, ResumePath: path})
		if !equalResults(res, cleanSealed) {
			t.Fatalf("workers=%d: sealed resume %+v differs from clean %+v", w, res, cleanSealed)
		}
		if st.SealedStates != sealedStats.SealedStates || st.SealedArenaBytes != sealedStats.SealedArenaBytes {
			t.Errorf("workers=%d: sealed resume ends with %d states / %dB arena, clean %d / %dB", w,
				st.SealedStates, st.SealedArenaBytes, sealedStats.SealedStates, sealedStats.SealedArenaBytes)
		}
	}
}

// wideModel is a layered population for seal tests: level l holds up to
// width+l·width/8 states, each stepping to three states of the next
// level, so every level's claims spread over all 64 shards, same-level
// duplicates exercise min-key takeovers, and the live tier grows and
// shrinks by whole entry chunks at each seal.
type wideModel struct{ width, depth int }

func (m wideModel) levelWidth(l int) int { return m.width + l*m.width/8 }

func (m wideModel) state(l, i int) State {
	return State([]byte{'w', 'd', byte(l), byte(i >> 16), byte(i >> 8), byte(i), '/', 'p', 'a', 'd'})
}

func (m wideModel) Initial() []State { return []State{m.state(0, 0), m.state(0, 1)} }

func (m wideModel) Successors(s State) []State {
	l := int(s[2])
	if l+1 >= m.depth {
		return nil
	}
	i := int(s[3])<<16 | int(s[4])<<8 | int(s[5])
	w := m.levelWidth(l + 1)
	out := make([]State, 0, 6)
	for j := 0; j < 6; j++ {
		out = append(out, m.state(l+1, (i*6+j)%w))
	}
	return out
}

// TestSealFootprintAcrossWorkers: the seal runs its per-shard
// migrations on the search's workers, so the resident ledger is folded
// from per-shard accumulators. The footprint — peak and final resident
// bytes, sealed states, arena and index bytes — and the bytes of a
// checkpoint written at an interrupt must not depend on the worker
// count, and the resident and peak counters must equal a one-goroutine
// seal's to the byte. The fixture seals into all 64 shards over more
// than ten levels, and at least one seal both grows a sealed index and
// releases a live entry chunk (checked directly on the visited set
// first).
func TestSealFootprintAcrossWorkers(t *testing.T) {
	sealInParallel(t) // the fixture's levels are all under parallelSealMin
	m := wideModel{width: 2400, depth: 13}
	inv := func(from, to State) bool { return true }

	// Resident and peak bytes after each level's seal, as a seal that
	// migrates the shards one after another on a single goroutine,
	// sampling the peak as it goes, leaves them.
	serialSeal := [][2]int64{
		{49472, 49472}, {51456, 51456}, {61308, 61308}, {210416, 210416},
		{413134, 570488}, {536270, 873934}, {612772, 1044597}, {641966, 1071981},
		{672482, 1101204}, {1098378, 1139426}, {1133656, 1557687}, {1170008, 1592979},
		{963184, 1592979},
	}

	// On the visited set itself: claim each level in key order, seal
	// the previous one on w workers, and check the counters and shards.
	for _, w := range workerCounts {
		v := newVisitedSet(1 << 20)
		pcs := make([]probeCounter, w)
		var level []uint32
		for i, s := range m.Initial() {
			_, ref := v.claim([]byte(s), hashBytes([]byte(s)), 0, uint64(i), false, 0, &pcs[0])
			level = append(level, ref)
		}
		base := uint64(1) << keySuccBits
		growAndRelease := false
		l := 0
		for ; len(level) > 0; l++ {
			var next []uint32
			for i, ref := range level {
				for j, succ := range m.Successors(v.stateOf(ref)) {
					enc := []byte(succ)
					st, nref := v.claim(enc, hashBytes(enc), ref, claimKey(base, i, j), true, base, &pcs[0])
					if st == claimNew {
						next = append(next, nref)
					}
				}
			}
			base += uint64(len(level)) << keySuccBits
			var idxBefore [numShards]int
			var chunksBefore [numShards]int
			for s := range v.shards {
				idxBefore[s] = len(v.shards[s].sealed.index)
				for c := range v.shards[s].chunks {
					if v.shards[s].chunks[c].Load() != nil {
						chunksBefore[s]++
					}
				}
			}
			v.seal(pcs, level, next)
			if l < len(serialSeal) {
				if got := [2]int64{v.resident.Load(), v.peak.Load()}; got != serialSeal[l] {
					t.Errorf("workers=%d level %d: resident/peak %v, serial seal %v", w, l, got, serialSeal[l])
				}
			}
			grew, released := false, false
			for s := range v.shards {
				grew = grew || len(v.shards[s].sealed.index) > idxBefore[s] && idxBefore[s] > 0
				n := 0
				for c := range v.shards[s].chunks {
					if v.shards[s].chunks[c].Load() != nil {
						n++
					}
				}
				released = released || n < chunksBefore[s]
			}
			growAndRelease = growAndRelease || grew && released
			level = next
		}
		if l != len(serialSeal) {
			t.Fatalf("workers=%d: fixture sealed %d levels, want %d", w, l, len(serialSeal))
		}
		for s := range v.shards {
			if v.shards[s].sealed.count == 0 {
				t.Fatalf("workers=%d: fixture seals nothing into shard %d", w, s)
			}
		}
		if !growAndRelease {
			t.Fatalf("workers=%d: fixture has no seal that both grows a sealed index and releases an entry chunk", w)
		}
	}

	type footprint struct {
		peak, resident, sealed, arena, index int64
		levels                               int
	}
	// The search's footprint, pinned to the serial seal's figures.
	want := footprint{peak: 1592979, resident: 963184, sealed: 42710,
		arena: 275056, index: 524288, levels: 13}
	var wantCkpt []byte
	for i, w := range workerCounts {
		var st Stats
		res, err := CheckTransitionInvariant(m, inv, Options{Workers: w, Stats: func(s Stats) { st = s }})
		if err != nil || !res.Holds {
			t.Fatalf("workers=%d: res=%+v err=%v", w, res, err)
		}
		got := footprint{st.PeakResidentBytes, st.ResidentBytes, st.SealedStates,
			st.SealedArenaBytes, st.SealedIndexBytes, st.Levels}
		if got != want {
			t.Errorf("workers=%d: footprint %+v, serial seal %+v", w, got, want)
		}

		path := filepath.Join(t.TempDir(), "cp")
		ctx, cancel := context.WithCancel(context.Background())
		_, err = CheckTransitionInvariant(m, inv, Options{Workers: w, Context: ctx,
			CheckpointPath: path, Progress: cancelAfterLevels(9, cancel)})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: interrupted run: %v", w, err)
		}
		ckpt, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantCkpt = ckpt
		} else if !bytes.Equal(ckpt, wantCkpt) {
			t.Errorf("workers=%d: interrupt checkpoint differs from the first run's (%d vs %d bytes)",
				w, len(ckpt), len(wantCkpt))
		}
	}
}

// strayMaskBitSnapshot writes a sealed v5 snapshot to path with one
// delta record's last mask byte carrying a bit at or past the record's
// encoding length, then recomputes the file checksum so the envelope
// still validates. It returns the patched file bytes.
func strayMaskBitSnapshot(t testing.TB, path string) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	_, err := CheckTransitionInvariant(diamondModel{k: 20}, func(from, to State) bool { return true },
		Options{Context: ctx, CheckpointPath: path, Progress: cancelAfterLevels(8, cancel)})
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("fixture snapshot: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	for si := range s5.shards {
		sn := &s5.shards[si]
		if sn.count == 0 || bytes.Count(data, sn.blob) != 1 {
			continue
		}
		ss := &sealedShard{count: sn.count, blob: sn.blob, restarts: sn.restarts}
		var d sealedDecoder
		d.startAt(ss, 0, true)
		for d.ord < ss.count {
			if d.ord%sealedRestartEvery != 0 {
				_, n := binary.Varint(ss.blob[d.off:])
				encLen, m := binary.Uvarint(ss.blob[d.off+n:])
				if int(encLen) == len(d.enc) && encLen%8 != 0 {
					last := d.off + n + m + int(encLen+7)/8 - 1
					data[bytes.Index(data, sn.blob)+last] |= 0x80
					sum := fnv.New64a()
					sum.Write(data[:len(data)-8])
					binary.BigEndian.PutUint64(data[len(data)-8:], sum.Sum64())
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					return data
				}
			}
			d.step()
		}
	}
	t.Fatal("fixture snapshot has no delta record with spare mask bits")
	return nil
}
