package mc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// chainDelta claims states in one ShardStore as a BFS chain — the first
// a root, each later one the child of the one before — and returns a
// writer of the level's delta file together with the Checkpoint
// ReadCheckpoint must load from it.
func chainDelta(depth int32, reduced bool, fp uint64, states ...string) (func(path string) error, *Checkpoint) {
	s := NewShardStore(0)
	want := &Checkpoint{Depth: depth, Reduced: reduced, Fingerprint: fp}
	for i, st := range states {
		e := VisitedEntry{State: State(st)}
		if i > 0 {
			e.Parent, e.HasParent = State(states[i-1]), true
		}
		s.Claim([]byte(st), uint64(i), []byte(e.Parent), e.HasParent, 0)
		want.Visited = append(want.Visited, e)
		want.Frontier = append(want.Frontier, State(st))
	}
	refs, _ := s.DrainLevel()
	return func(path string) error { return s.WriteDelta(path, depth, reduced, fp, refs, refs) }, want
}

// sampleDelta covers the empty encoding (as a root, and as a parent)
// and an embedded NUL.
func sampleDelta() (func(path string) error, *Checkpoint) {
	return chainDelta(7, false, 0xdeadbeefcafef00d, "", "b", "c\x00d")
}

// writeEnvelope writes body under the checkpoint envelope with the
// given version and a correct checksum, the way a hand-built or foreign
// file would arrive.
func writeEnvelope(t *testing.T, path string, version uint64, body []byte) {
	t.Helper()
	payload := binary.AppendUvarint([]byte(checkpointMagic), version)
	payload = append(payload, body...)
	h := fnv.New64a()
	h.Write(payload)
	payload = binary.BigEndian.AppendUint64(payload, h.Sum64())
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	write, want := sampleDelta()
	if err := write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	write, _ := sampleDelta()
	if err := write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("flip at byte %d: got %v, want ErrBadCheckpoint", i, err)
		}
	}
}

func TestCheckpointTruncationDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp")
	write, _ := sampleDelta()
	if err := write(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(checkpointMagic), len(data) / 2, len(data) - 1} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrBadCheckpoint", n, err)
		}
	}
}

// TestCheckpointVersionMismatch: each reader accepts exactly its own
// version. The engine refuses a dist delta file, the retired engine
// formats 1–3 and an unknown version; the delta reader refuses an
// engine snapshot. Every refusal is ErrBadCheckpoint and leaves the
// file as it was.
func TestCheckpointVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	inv := func(from, to State) bool { return true }
	refuse := func(name, path string, read func() error) {
		t.Helper()
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := read(); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: got %v, want ErrBadCheckpoint", name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil || string(after) != string(before) {
			t.Errorf("%s: file changed or gone after the refusal (%v)", name, err)
		}
	}
	resume := func(path string) func() error {
		return func() error {
			_, err := CheckTransitionInvariant(diamondModel{k: 6}, inv, Options{ResumePath: path})
			return err
		}
	}

	delta := filepath.Join(dir, "delta")
	write, _ := sampleDelta()
	if err := write(delta); err != nil {
		t.Fatal(err)
	}
	refuse("delta as ResumePath", delta, resume(delta))

	for _, version := range []uint64{1, 2, 3, 99} {
		path := filepath.Join(dir, "foreign")
		writeEnvelope(t, path, version, []byte{0, 0, 0})
		refuse(fmt.Sprintf("version %d as ResumePath", version), path, resume(path))
		refuse(fmt.Sprintf("version %d as delta", version), path, func() error {
			_, err := ReadCheckpoint(path)
			return err
		})
	}

	snap := filepath.Join(dir, "snap")
	interruptSealed(t, 6, 2, snap, false)
	refuse("snapshot as delta", snap, func() error {
		_, err := ReadCheckpoint(snap)
		return err
	})
}

// patchHeader rewrites header field i (0 = depth, 1 = result depth,
// 2 = transitions, 5 = a snapshot's claim-key base) of the checkpoint
// at path to val and re-seals the checksum.
func patchHeader(t *testing.T, path string, i int, val uint64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := data[len(checkpointMagic) : len(data)-8]
	version, n := binary.Uvarint(body)
	body = body[n:]
	var head []byte
	for k := 0; k <= i; k++ {
		v, n := binary.Uvarint(body)
		body = body[n:]
		if k == i {
			v = val
		}
		head = binary.AppendUvarint(head, v)
	}
	writeEnvelope(t, path, version, append(head, body...))
}

// TestCheckpointHeaderRange: a checkpoint file is outside input, so a
// header field the engine narrows or adds to is range-checked at parse
// time even under a valid checksum. A claim-key base near 2^64 would
// otherwise wrap the engine's key-space guard and pass it; an oversized
// depth or counter would come out negative.
func TestCheckpointHeaderRange(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap")
	interruptSealed(t, 12, 4, snap, false)
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	inv := func(from, to State) bool { return true }
	for _, tc := range []struct {
		name  string
		field int
		val   uint64
	}{
		{"nextBase", 5, math.MaxUint64 - 1<<keySuccBits + 1},
		{"depth", 0, math.MaxInt32 + 1},
		{"resultDepth", 1, math.MaxUint64},
		{"transitions", 2, math.MaxUint64},
	} {
		if err := os.WriteFile(snap, good, 0o644); err != nil {
			t.Fatal(err)
		}
		patchHeader(t, snap, tc.field, tc.val)
		if _, err := CheckTransitionInvariant(diamondModel{k: 12}, inv, Options{ResumePath: snap}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("snapshot %s out of range: got %v, want ErrBadCheckpoint", tc.name, err)
		}
	}

	delta := filepath.Join(dir, "delta")
	write, _ := sampleDelta()
	for _, tc := range []struct {
		name  string
		field int
		val   uint64
	}{
		{"depth", 0, math.MaxInt32 + 1},
		{"resultDepth", 1, math.MaxUint64},
		{"transitions", 2, math.MaxUint64},
	} {
		if err := write(delta); err != nil {
			t.Fatal(err)
		}
		patchHeader(t, delta, tc.field, tc.val)
		if _, err := ReadCheckpoint(delta); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("delta %s out of range: got %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	if _, err := ReadCheckpoint(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want os.ErrNotExist", err)
	}
}

// TestCheckpointAtomicNoTempLeft: both writers leave only their target
// behind.
func TestCheckpointAtomicNoTempLeft(t *testing.T) {
	dir := t.TempDir()
	write, _ := sampleDelta()
	if err := write(filepath.Join(dir, "delta")); err != nil {
		t.Fatalf("write: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CheckTransitionInvariant(diamondModel{k: 4}, func(from, to State) bool { return true },
		Options{Context: ctx, CheckpointPath: filepath.Join(dir, "snap")})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "delta" || entries[1].Name() != "snap" {
		t.Fatalf("directory holds %d entries, want only the two checkpoints", len(entries))
	}
}
