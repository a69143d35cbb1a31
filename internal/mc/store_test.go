package mc

// Unit tests for the distributed worker's ShardStore: claim semantics
// (min-key takeover within a level, immutability across levels, budget
// refusal), key-ordered level drains, and the delta-file write/merge
// round trips crash recovery depends on.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestShardStoreClaimSemantics(t *testing.T) {
	s := NewShardStore(10)

	// First admission.
	st, ref := s.Claim([]byte("a"), 100, nil, false, 100)
	if st != ClaimNew {
		t.Fatalf("first claim: %v, want ClaimNew", st)
	}
	if got := s.KeyOf(ref); got != 100 {
		t.Fatalf("key = %d, want 100", got)
	}

	// Same-level duplicate with a LOWER key takes over the record.
	if st, _ := s.Claim([]byte("a"), 90, []byte("p"), true, 50); st != ClaimDup {
		t.Fatalf("takeover claim: %v, want ClaimDup", st)
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("after takeover key = %d, want 90", got)
	}
	if p, has, found := s.ParentOf([]byte("a")); !found || !has || p != "p" {
		t.Fatalf("after takeover parent = (%q,%v,%v), want (p,true,true)", p, has, found)
	}

	// Same-level duplicate with a HIGHER key does not.
	if st, _ := s.Claim([]byte("a"), 95, []byte("q"), true, 50); st != ClaimDup {
		t.Fatal("higher-key dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("higher-key dup moved the key to %d", got)
	}

	// An earlier-level record is immutable: levelBase above the stored
	// key marks it as prior-level.
	if st, _ := s.Claim([]byte("a"), 10, []byte("r"), true, 200); st != ClaimDup {
		t.Fatal("prior-level dup should be ClaimDup")
	}
	if got := s.KeyOf(ref); got != 90 {
		t.Fatalf("prior-level dup rewrote the key to %d", got)
	}

	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

func TestShardStoreClaimFull(t *testing.T) {
	s := NewShardStore(2)
	s.Claim([]byte("a"), 1, nil, false, 1)
	s.Claim([]byte("b"), 2, nil, false, 1)
	if st, _ := s.Claim([]byte("c"), 3, nil, false, 1); st != ClaimFull {
		t.Fatalf("over-budget claim: %v, want ClaimFull", st)
	}
	// A duplicate of an admitted state is still reported as such, not as
	// budget exhaustion.
	if st, _ := s.Claim([]byte("a"), 1, nil, false, 1); st != ClaimDup {
		t.Fatal("dup after full should be ClaimDup")
	}
	if got := s.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestShardStoreDrainLevelKeyOrder(t *testing.T) {
	s := NewShardStore(0)
	// Admit out of key order; a takeover lowers one key after admission.
	s.Claim([]byte("x"), 300, nil, false, 100)
	s.Claim([]byte("y"), 100, nil, false, 100)
	s.Claim([]byte("z"), 200, nil, false, 100)
	s.Claim([]byte("x"), 150, nil, false, 100) // takeover: 300 → 150

	refs, keys := s.DrainLevel()
	if !reflect.DeepEqual(keys, []uint64{100, 150, 200}) {
		t.Fatalf("drain keys = %v, want [100 150 200]", keys)
	}
	wantStates := []string{"y", "x", "z"}
	for i, r := range refs {
		if got := string(s.BytesOf(r)); got != wantStates[i] {
			t.Fatalf("drain[%d] = %q, want %q", i, got, wantStates[i])
		}
	}
	// The drain is consumed.
	if refs, _ := s.DrainLevel(); len(refs) != 0 {
		t.Fatalf("second drain returned %d refs", len(refs))
	}
}

// deltaOf writes the store's drained level as a delta file (the
// level's states are also its frontier) and reads it back, the way
// crash recovery receives it.
func deltaOf(t *testing.T, s *ShardStore, depth int32, reduced bool, fp uint64) *Checkpoint {
	t.Helper()
	refs, _ := s.DrainLevel()
	path := filepath.Join(t.TempDir(), "delta")
	if err := s.WriteDelta(path, depth, reduced, fp, refs, refs); err != nil {
		t.Fatalf("write delta: %v", err)
	}
	cp, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read delta: %v", err)
	}
	return cp
}

// TestShardStoreSnapshotRestoreRoundTrip: a delta file restores, by
// merging into an empty store, to the states, frontier and parents it
// was written from.
func TestShardStoreSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewShardStore(0)
	s.Claim([]byte("root"), 1, nil, false, 1)
	s.Claim([]byte("kid1"), 10, []byte("root"), true, 10)
	s.Claim([]byte("kid2"), 11, []byte("root"), true, 10)
	cp := deltaOf(t, s, 3, true, 0xfeed)
	if cp.Depth != 3 || !cp.Reduced || cp.Fingerprint != 0xfeed {
		t.Fatalf("delta header %+v", cp)
	}

	r := NewShardStore(0)
	restored, err := r.Merge(cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	want := []string{"root", "kid1", "kid2"}
	if len(restored) != len(want) {
		t.Fatalf("restored frontier %d refs, want %d", len(restored), len(want))
	}
	for i := range want {
		if got := string(r.BytesOf(restored[i])); got != want[i] {
			t.Fatalf("frontier[%d] = %q, want %q", i, got, want[i])
		}
	}
	if r.Count() != s.Count() {
		t.Fatalf("restored count %d, want %d", r.Count(), s.Count())
	}
	if p, has, found := r.ParentOf([]byte("kid2")); !found || !has || p != "root" {
		t.Fatalf("restored parent of kid2 = (%q,%v,%v)", p, has, found)
	}
	if _, has, found := r.ParentOf([]byte("root")); !found || has {
		t.Fatalf("restored root should be parentless (has=%v found=%v)", has, found)
	}
}

// TestShardStoreSnapshotCanonical: delta bytes follow claim keys, not
// admission order.
func TestShardStoreSnapshotCanonical(t *testing.T) {
	a := NewShardStore(0)
	a.Claim([]byte("m"), 5, nil, false, 5)
	a.Claim([]byte("n"), 6, nil, false, 5)
	b := NewShardStore(0)
	b.Claim([]byte("n"), 6, nil, false, 5)
	b.Claim([]byte("m"), 5, nil, false, 5)
	var files [2][]byte
	for i, s := range []*ShardStore{a, b} {
		refs, _ := s.DrainLevel()
		path := filepath.Join(t.TempDir(), "delta")
		if err := s.WriteDelta(path, 1, false, 0, refs, refs); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("delta files differ under admission order")
	}
}

func TestShardStoreMergeDisjointAndOverlap(t *testing.T) {
	// A survivor holding its own shard absorbs a dead worker's delta,
	// into its live tier (Merge) or straight into the sealed tier
	// (MergeSealed).
	for _, sealed := range []bool{false, true} {
		dead := NewShardStore(0)
		dead.Claim([]byte("d1"), 7, nil, false, 7)
		dead.Claim([]byte("d2"), 8, []byte("d1"), true, 7)
		cp := deltaOf(t, dead, 2, false, 0)

		surv := NewShardStore(0)
		surv.Claim([]byte("s1"), 9, nil, false, 9)
		held, _ := surv.DrainLevel()
		merge := surv.Merge
		if sealed {
			merge = func(cp *Checkpoint) ([]uint32, error) { return surv.MergeSealed(cp, held) }
		}

		merged, err := merge(cp)
		if err != nil {
			t.Fatalf("sealed=%v: merge: %v", sealed, err)
		}
		if len(merged) != 2 || surv.Count() != 3 {
			t.Fatalf("sealed=%v: merge frontier %d refs, count %d; want 2 and 3", sealed, len(merged), surv.Count())
		}
		for i, want := range []string{"d1", "d2"} {
			if got := string(surv.BytesOf(merged[i])); got != want {
				t.Fatalf("sealed=%v: merged frontier[%d] = %q, want %q", sealed, i, got, want)
			}
		}
		if got := string(surv.BytesOf(held[0])); got != "s1" {
			t.Fatalf("sealed=%v: survivor's own ref now reads %q", sealed, got)
		}
		if p, has, _ := surv.ParentOf([]byte("d2")); !has || p != "d1" {
			t.Fatalf("sealed=%v: merged parent of d2 = (%q,%v)", sealed, p, has)
		}

		// Overlapping states mean the delta and the store disagree about
		// shard ownership — corrupt, not mergeable.
		if _, err := merge(cp); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("sealed=%v: overlapping merge: %v, want ErrCheckpointCorrupt", sealed, err)
		}
	}
}

func TestShardStoreMergeOverBudget(t *testing.T) {
	dead := NewShardStore(0)
	dead.Claim([]byte("d1"), 1, nil, false, 1)
	dead.Claim([]byte("d2"), 2, nil, false, 1)
	cp := deltaOf(t, dead, 1, false, 0)

	surv := NewShardStore(3)
	surv.Claim([]byte("s1"), 3, nil, false, 1)
	surv.Claim([]byte("s2"), 4, nil, false, 1)
	if _, err := surv.Merge(cp); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget merge: %v, want ErrStateLimit", err)
	}
}

// TestShardStoreRestoreOverBudget: restoring a delta into an empty
// store with a smaller budget than the delta's states fails typed.
func TestShardStoreRestoreOverBudget(t *testing.T) {
	big := NewShardStore(0)
	big.Claim([]byte("a"), 1, nil, false, 1)
	big.Claim([]byte("b"), 2, nil, false, 1)
	big.Claim([]byte("c"), 3, nil, false, 1)
	cp := deltaOf(t, big, 1, false, 0)

	small := NewShardStore(2)
	if _, err := small.Merge(cp); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("over-budget restore: %v, want ErrStateLimit", err)
	}
}
