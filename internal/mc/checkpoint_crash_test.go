package mc

// Crash-consistency tests for the checkpoint writers: a write that dies at
// ANY byte offset must leave the previous file readable and the
// directory free of temp litter, and a reader handed a damaged file must
// reject it without modifying it. The mid-write failures are injected
// through the checkpointWrapWriter seam, so every offset of the real
// serialization stream is exercised without filesystem tricks.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// tornWriter passes bytes through until limit, then fails every write.
type tornWriter struct {
	w       io.Writer
	limit   int
	written int
}

var errTorn = errors.New("torn write injected")

func (tw *tornWriter) Write(p []byte) (int, error) {
	if tw.written >= tw.limit {
		return 0, errTorn
	}
	if room := tw.limit - tw.written; len(p) > room {
		n, _ := tw.w.Write(p[:room])
		tw.written += n
		return n, errTorn
	}
	n, err := tw.w.Write(p)
	tw.written += n
	return n, err
}

// reloadSnapshot restores the engine snapshot at path into a fresh
// visited set and returns a writer that serializes that state again
// through the engine's retrying snapshot writer.
func reloadSnapshot(t testing.TB, path string) func(dst string) (int, error) {
	t.Helper()
	s5, err := readSnapshot(path)
	if err != nil || s5 == nil {
		t.Fatalf("read snapshot: %v", err)
	}
	v := newVisitedSet(1 << 20)
	live, err := v.restoreSealed(s5)
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	res := Result{Depth: s5.resultDepth, TransitionsExplored: s5.transitions, Reduced: s5.reduced}
	frontier := live[len(live)-s5.frontier:]
	return func(dst string) (int, error) {
		return writeSnapshotRetry(dst, v, res, frontier, s5.depth, s5.fingerprint, s5.nextBase)
	}
}

// checkpointFormat is one writer/reader pair under the shared envelope,
// with two distinguishable files to overwrite one with the other.
type checkpointFormat struct {
	name      string
	old, repl func(path string) error
	read      func(path string) error
}

// checkpointFormats returns the delta and the engine-snapshot formats.
func checkpointFormats(t *testing.T) []checkpointFormat {
	t.Helper()
	oldDelta, _ := sampleDelta()
	replDelta, _ := chainDelta(9, true, 0x0123456789abcdef, "x", "yy")
	dir := t.TempDir()
	snapshotWriter := func(cutAt int) func(string) error {
		src := filepath.Join(dir, fmt.Sprint("snap", cutAt))
		interruptSealed(t, 8, cutAt, src, false)
		write := reloadSnapshot(t, src)
		return func(path string) error {
			_, err := write(path)
			return err
		}
	}
	return []checkpointFormat{
		{"delta", oldDelta, replDelta, func(path string) error {
			_, err := ReadCheckpoint(path)
			return err
		}},
		{"snapshot", snapshotWriter(2), snapshotWriter(5), func(path string) error {
			_, err := readSnapshot(path)
			return err
		}},
	}
}

// TestCheckpointTornWriteKeepsOldSnapshot kills the serialization stream
// at every byte offset of an overwriting file, in both formats, and
// checks after each failed attempt that (a) the writer reported the
// failure, (b) the pre-existing file still reads back byte-identical,
// and (c) no temp file is left behind. A final unwrapped write must
// then succeed — the torn attempts may not have wedged the path.
func TestCheckpointTornWriteKeepsOldSnapshot(t *testing.T) {
	defer func() { checkpointWrapWriter = nil }()
	for _, f := range checkpointFormats(t) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cp")
		if err := f.old(path); err != nil {
			t.Fatalf("%s: seed write: %v", f.name, err)
		}
		seed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Measure the replacement's full stream length with a pass
		// against a scratch directory.
		scratch := filepath.Join(t.TempDir(), "scratch")
		if err := f.repl(scratch); err != nil {
			t.Fatalf("%s: scratch write: %v", f.name, err)
		}
		replData, err := os.ReadFile(scratch)
		if err != nil {
			t.Fatal(err)
		}

		for cut := 0; cut < len(replData); cut++ {
			checkpointWrapWriter = func(w io.Writer) io.Writer {
				return &tornWriter{w: w, limit: cut}
			}
			if err := f.repl(path); !errors.Is(err, errTorn) {
				t.Fatalf("%s: cut at %d: got %v, want errTorn", f.name, cut, err)
			}
			if err := f.read(path); err != nil {
				t.Fatalf("%s: cut at %d: old file unreadable: %v", f.name, cut, err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != string(seed) {
				t.Fatalf("%s: cut at %d: file bytes changed", f.name, cut)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "cp" {
				names := make([]string, len(entries))
				for i, e := range entries {
					names[i] = e.Name()
				}
				t.Fatalf("%s: cut at %d: directory litter %v", f.name, cut, names)
			}
		}

		checkpointWrapWriter = nil
		if err := f.repl(path); err != nil {
			t.Fatalf("%s: final write: %v", f.name, err)
		}
		if err := f.read(path); err != nil {
			t.Fatalf("%s: final read: %v", f.name, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(replData) {
			t.Fatalf("%s: final file differs from the replacement", f.name)
		}
	}
}

// enospcWriter fails every write with ENOSPC — a whole write attempt
// dies transiently.
type enospcWriter struct{}

func (enospcWriter) Write(p []byte) (int, error) { return 0, syscall.ENOSPC }

// TestWriteCheckpointRetryTransient proves the engine's bounded-backoff
// snapshot writer rides out transient failures: two ENOSPC attempts,
// then success, with the retry count surfaced to the caller.
func TestWriteCheckpointRetryTransient(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	interruptSealed(t, 8, 3, src, false)
	want, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	write := reloadSnapshot(t, src)

	fails := 2
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		if fails > 0 {
			fails--
			return enospcWriter{}
		}
		return w
	}
	defer func() { checkpointWrapWriter = nil }()

	path := filepath.Join(dir, "cp")
	retries, err := write(path)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(got) != string(want) {
		t.Fatal("post-retry snapshot differs from the one it was reloaded from")
	}
}

// TestWriteCheckpointRetryPermanent proves a non-transient failure is NOT
// retried: one attempt, the error surfaces as-is.
func TestWriteCheckpointRetryPermanent(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	interruptSealed(t, 8, 3, src, false)
	write := reloadSnapshot(t, src)

	calls := 0
	checkpointWrapWriter = func(w io.Writer) io.Writer {
		calls++
		return &tornWriter{w: io.Discard, limit: 0}
	}
	defer func() { checkpointWrapWriter = nil }()

	retries, err := write(filepath.Join(dir, "cp"))
	if !errors.Is(err, errTorn) {
		t.Fatalf("got %v, want errTorn", err)
	}
	if retries != 0 || calls != 1 {
		t.Fatalf("retries=%d calls=%d, want a single undecorated attempt", retries, calls)
	}
}

// TestReadCheckpointLeavesCorruptFileIntact pins down that both readers
// are strictly read-only: rejecting a damaged file of either format —
// read directly, or handed to a resuming search that also names it as
// its checkpoint path — must not modify it, so a post-mortem can
// inspect exactly what the crash left behind.
func TestReadCheckpointLeavesCorruptFileIntact(t *testing.T) {
	for _, f := range checkpointFormats(t) {
		path := filepath.Join(t.TempDir(), "cp")
		if err := f.old(path); err != nil {
			t.Fatalf("%s: write: %v", f.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0xff
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		resume := func(path string) error {
			_, err := CheckTransitionInvariant(diamondModel{k: 8},
				func(from, to State) bool { return true },
				Options{ResumePath: path, CheckpointPath: path})
			return err
		}
		for _, read := range []func(string) error{f.read, resume} {
			if err := read(path); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("%s: got %v, want ErrBadCheckpoint", f.name, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(bad) {
				t.Fatalf("%s: reader modified the corrupt file", f.name)
			}
		}
	}
}

// FuzzReadCheckpoint throws arbitrary bytes at both readers. The
// contract under fuzzing: never panic, never modify the input file, and
// any bytes a reader does accept must round-trip through the matching
// writer. A delta that merges into an empty ShardStore is written back
// through WriteDelta; a snapshot that restores into an empty visited
// set is written back through the engine's snapshot writer. Re-reading
// either yields the same value. Every sealed entry a restore accepts
// must also decode through the trusted (unchecked) decoder.
func FuzzReadCheckpoint(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed")
	write, _ := sampleDelta()
	if err := write(seedPath); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	mut := append([]byte(nil), valid...)
	mut[len(checkpointMagic)] ^= 0x01 // version byte
	f.Add(mut)
	for _, noSeal := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := CheckTransitionInvariant(diamondModel{k: 5}, func(from, to State) bool { return true },
			Options{Context: ctx, NoSeal: noSeal, CheckpointPath: seedPath, Progress: cancelAfterLevels(3, cancel)})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			f.Fatalf("seed snapshot: %v", err)
		}
		snap, err := os.ReadFile(seedPath)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
	}
	f.Add(strayMaskBitSnapshot(f, seedPath))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, derr := ReadCheckpoint(path)
		s5, serr := readSnapshot(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if string(after) != string(data) {
			t.Fatal("reader modified the file")
		}
		back := filepath.Join(t.TempDir(), "back")
		if derr == nil {
			s := NewShardStore(0)
			if refs, err := s.mergeClaims(cp); err == nil {
				if frontier, err := s.frontierRefs(cp); err == nil {
					if err := s.WriteDelta(back, cp.Depth, cp.Reduced, cp.Fingerprint, refs, frontier); err != nil {
						t.Fatalf("re-serialize accepted delta: %v", err)
					}
					cp2, err := ReadCheckpoint(back)
					if err != nil {
						t.Fatalf("re-read re-serialized delta: %v", err)
					}
					if !reflect.DeepEqual(cp, cp2) {
						t.Fatalf("accepted delta does not round-trip:\n got %+v\nthen %+v", cp, cp2)
					}
				}
			}
		}
		if serr == nil && s5 != nil {
			v := newVisitedSet(1 << 20)
			live, err := v.restoreSealed(s5)
			if err != nil {
				return
			}
			// A restored arena must be safe for the trusted decoder
			// that lookups use.
			for si := range v.shards {
				for o := uint32(0); o < v.shards[si].sealed.count; o++ {
					v.bytesOf(makeRef(uint32(si), o))
				}
			}
			res := Result{Depth: s5.resultDepth, TransitionsExplored: s5.transitions, Reduced: s5.reduced}
			if err := writeSnapshot(back, v, res, live[len(live)-s5.frontier:], s5.depth, s5.fingerprint, s5.nextBase); err != nil {
				t.Fatalf("re-serialize accepted snapshot: %v", err)
			}
			s52, err := readSnapshot(back)
			if err != nil {
				t.Fatalf("re-read re-serialized snapshot: %v", err)
			}
			if !reflect.DeepEqual(s5, s52) {
				t.Fatalf("accepted snapshot does not round-trip:\n got %+v\nthen %+v", s5, s52)
			}
		}
	})
}
