package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ttastar/internal/mc"
)

func TestRunMatrix(t *testing.T) {
	if err := run([]string{"-matrix"}); err != nil {
		t.Fatalf("-matrix: %v", err)
	}
}

func TestRunTraces(t *testing.T) {
	for _, kind := range []string{"coldstart", "cstate", "unconstrained"} {
		if err := run([]string{"-trace", kind}); err != nil {
			t.Errorf("-trace %s: %v", kind, err)
		}
	}
	if err := run([]string{"-trace", "bogus"}); err == nil {
		t.Error("bogus trace kind accepted")
	}
}

func TestRunParallelAndVerbose(t *testing.T) {
	if err := run([]string{"-matrix", "-parallel", "2"}); err != nil {
		t.Errorf("-matrix -parallel 2: %v", err)
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-parallel", "1", "-v"}); err != nil {
		t.Errorf("-parallel 1 -v: %v", err)
	}
	if err := run([]string{"-trace", "unconstrained", "-parallel", "3"}); err != nil {
		t.Errorf("-trace -parallel 3: %v", err)
	}
}

func TestRunDirectCheck(t *testing.T) {
	if err := run([]string{"-authority", "smallshift", "-nodes", "3"}); err != nil {
		t.Errorf("direct check: %v", err)
	}
	if err := run([]string{"-authority", "fullshift", "-max-oos", "1", "-states"}); err != nil {
		t.Errorf("fullshift check: %v", err)
	}
	if err := run([]string{"-authority", "bogus"}); err == nil {
		t.Error("bogus authority accepted")
	}
	if err := run([]string{"-nodes", "99"}); err == nil {
		t.Error("99 nodes accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestRunInterruptResume is the CLI-level resilience loop: cut a search
// after a few levels via -interrupt-after, confirm the typed interrupt
// error and the checkpoint file, then -resume to the same verdict a clean
// run produces — and confirm the finished search removed the checkpoint.
func TestRunInterruptResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.mc")
	args := []string{"-authority", "smallshift", "-nodes", "2", "-parallel", "2", "-checkpoint", cp}
	err := run(append(args, "-interrupt-after", "3"))
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want mc.ErrInterrupted", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if err := run(append(args, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished search left its checkpoint behind (stat err=%v)", err)
	}
}

func TestRunFallbackFlags(t *testing.T) {
	// A tiny -max-states budget without fallback fails; with
	// -fallback-walks it degrades to an inconclusive sampled verdict.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-max-states", "10"}); err == nil {
		t.Error("exhausted budget without fallback did not error")
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-max-states", "10", "-fallback-walks", "4", "-fallback-depth", "32"}); err != nil {
		t.Errorf("fallback sampling: %v", err)
	}
}

func TestRunMemBudgetFlag(t *testing.T) {
	// An impossibly small -mem-budget trips the same degradation path as
	// -max-states: hard failure without fallback, inconclusive with it.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1024"}); err == nil {
		t.Error("exhausted memory budget without fallback did not error")
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1024", "-fallback-walks", "4", "-fallback-depth", "32"}); err != nil {
		t.Errorf("fallback sampling under memory budget: %v", err)
	}
	// A generous budget must not perturb the verdict.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1073741824", "-stats"}); err != nil {
		t.Errorf("generous memory budget: %v", err)
	}
}

// TestMain lets -dist-workers runs re-execute this test binary as their
// worker processes, the way they re-execute ttamc itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-dist-worker" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ttamc:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stderrOf runs ttamc with args and returns what it wrote to stderr.
func stderrOf(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run(args)
	os.Stderr = saved
	if err != nil {
		t.Fatalf("ttamc %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestRunStatsOmitsUnmeasured: -stats prints the heap and visited-set
// figures of an in-process search, and leaves them out of a distributed
// one, whose backend does not measure them, rather than print zeros.
func TestRunStatsOmitsUnmeasured(t *testing.T) {
	local := stderrOf(t, "-authority", "smallshift", "-nodes", "3", "-parallel", "2", "-stats")
	for _, want := range []string{"361 states in", "allocs (", "load factor", "resident", "probe lengths", "sealed tier:", "lookups ("} {
		if !strings.Contains(local, want) {
			t.Errorf("in-process -stats lacks %q:\n%s", want, local)
		}
	}
	distOut := stderrOf(t, "-authority", "smallshift", "-nodes", "3", "-dist-workers", "2", "-stats")
	if !strings.Contains(distOut, "361 states in") || !strings.Contains(distOut, "ttamc: wire:") {
		t.Errorf("dist -stats lacks the measured figures:\n%s", distOut)
	}
	for _, unmeasured := range []string{"allocs", "load factor", "resident", "probe lengths", "visited set", "lookups"} {
		if strings.Contains(distOut, unmeasured) {
			t.Errorf("dist -stats prints the unmeasured %q:\n%s", unmeasured, distOut)
		}
	}
}
