package mc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fingerprintedColored wraps the synthetic colored model with a model
// fingerprint, standing in for a parameterized model whose encodings are
// configuration-dependent.
type fingerprintedColored struct {
	coloredModel
	fp uint64
}

func (m fingerprintedColored) Fingerprint() uint64 { return m.fp }

// TestResumeFingerprintMismatch: a checkpoint taken under one model
// fingerprint must refuse to resume under a different one — the typed
// ErrModelMismatch, mirroring the reduced-mode mismatch — while a
// matching or absent fingerprint resumes normally.
func TestResumeFingerprintMismatch(t *testing.T) {
	inv := func(from, to State) bool { return true }
	path := filepath.Join(t.TempDir(), "cp")
	a := fingerprintedColored{coloredModel{max: 400}, 0x1111}
	ctx, cancel := context.WithCancel(context.Background())
	_, err := CheckTransitionInvariant(a, inv, Options{
		Context:        ctx,
		CheckpointPath: path,
		Progress:       cancelAfterLevels(3, cancel),
	})
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	s5, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if s5.fingerprint != 0x1111 {
		t.Fatalf("checkpoint fingerprint = %#x, want 0x1111", s5.fingerprint)
	}

	// Mismatched fingerprint: typed failure, checkpoint left intact.
	b := fingerprintedColored{coloredModel{max: 400}, 0x2222}
	if _, err := CheckTransitionInvariant(b, inv, Options{ResumePath: path}); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("mismatched resume: got %v, want ErrModelMismatch", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint gone after refused resume: %v", err)
	}

	// A model with no fingerprint loads best-effort.
	plain := coloredModel{max: 400}
	if _, err := CheckTransitionInvariant(plain, inv, Options{ResumePath: path}); err != nil {
		t.Fatalf("fingerprint-less resume: %v", err)
	}

	// Matching fingerprint resumes to the full space.
	res, err := CheckTransitionInvariant(a, inv, Options{ResumePath: path})
	if err != nil {
		t.Fatalf("matched resume: %v", err)
	}
	// The default resume runs reduced: the color quotient halves the
	// space to max+1 states.
	if want := 400 + 1; res.StatesExplored != want {
		t.Fatalf("resumed to %d states, want %d", res.StatesExplored, want)
	}
}
