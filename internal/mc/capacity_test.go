package mc

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// shrinkLimit sets a capacity guard's threshold to v for one test.
func shrinkLimit[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

// fanModel is a chain 0 → 1 → … → depth whose last state fans out to
// width leaves ("depth+1" … "depth+width"), which have no successors.
type fanModel struct{ depth, width int }

func (m fanModel) Initial() []State { return []State{encodeInt(0)} }

func (m fanModel) Successors(s State) []State {
	v := decodeInt(s)
	switch {
	case v < m.depth:
		return []State{encodeInt(v + 1)}
	case v == m.depth:
		out := make([]State, m.width)
		for i := range out {
			out[i] = encodeInt(m.depth + 1 + i)
		}
		return out
	}
	return nil
}

// checkLimitKeepsCheckpoint runs a search that must stop at a capacity
// limit at every worker count, with a checkpoint every level. The error
// must wrap ErrStateLimit, and the checkpoint written before the limit
// must survive and resume — once the limit is lifted by restore — to the
// clean run's result.
func checkLimitKeepsCheckpoint(t *testing.T, m Model, restore func()) {
	t.Helper()
	holds := func(State) bool { return true }
	path := filepath.Join(t.TempDir(), "cap.mc")
	for _, w := range workerCounts {
		os.Remove(path)
		_, err := CheckInvariant(m, holds, Options{Workers: w, CheckpointPath: path, CheckpointEvery: 1})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("workers=%d: err = %v, want ErrStateLimit", w, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("workers=%d: checkpoint gone after the limit: %v", w, err)
		}
	}
	restore()
	clean, err := CheckInvariant(m, holds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := CheckInvariant(m, holds, Options{ResumePath: path, CheckpointPath: path})
	if err != nil {
		t.Fatalf("resume after the limit: %v", err)
	}
	if !equalResults(clean, resumed) {
		t.Errorf("resumed %+v, clean %+v", resumed, clean)
	}
}

// TestSuccessorLimitIsAnError: a state with more successors than claim
// keys can index stops the search with ErrStateLimit instead of a panic.
func TestSuccessorLimitIsAnError(t *testing.T) {
	m := fanModel{depth: 4, width: 9}
	shrinkLimit(t, &maxSuccessors, 8)
	if !TooManySuccessors(9) || TooManySuccessors(8) {
		t.Fatal("TooManySuccessors does not read the limit")
	}
	checkLimitKeepsCheckpoint(t, m, func() { maxSuccessors = keySuccMask + 1 })
}

// TestShardOrdinalLimitIsAnError: a shard holding as many states as refs
// can address refuses the next one, and the search stops with
// ErrStateLimit instead of a panic.
func TestShardOrdinalLimitIsAnError(t *testing.T) {
	m := diamondModel{k: 30} // 961 states over 64 shards
	shrinkLimit(t, &shardOrdinalLimit, 8)
	checkLimitKeepsCheckpoint(t, m, func() { shardOrdinalLimit = maxOrdinal })
}

// TestShardStoreOrdinalLimit: a distributed worker's store reports a
// full shard as ClaimFull — the status the worker already reports as a
// spent budget — and never admits past the limit.
func TestShardStoreOrdinalLimit(t *testing.T) {
	shrinkLimit(t, &shardOrdinalLimit, 2)
	s := NewShardStore(0)
	full := 0
	for i := 0; i < 1000; i++ {
		enc := []byte(encodeInt(i))
		switch st, _ := s.Claim(enc, uint64(i), nil, false, 0); st {
		case ClaimFull:
			full++
		case ClaimDup:
			t.Fatalf("state %d: distinct state claimed as a duplicate", i)
		}
	}
	if full == 0 {
		t.Fatal("no claim was refused")
	}
	if got := int(s.Count()); got+full != 1000 || got > numShards*2 {
		t.Errorf("admitted %d states and refused %d; a %d-shard store at 2 per shard holds at most %d",
			got, full, numShards, numShards*2)
	}
}
