package main

// The four workloads. Each is a closed loop of one search at a time:
// perfbench starts the next pass only after the previous child process
// has exited. Every pass checks its verdicts and counts against the
// pins below; a pass that misses one is a failed pass and its timings
// are dropped.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ttastar/internal/dist"
	"ttastar/internal/experiments"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// env is what a pass gives its workload.
type env struct {
	workers int
	seed    uint64
	dir     string  // this pass's scratch directory, inside the checkout
	tr      *tracer // nil on untraced passes
	// ready marks the end of set-up: the first search call, or for dist
	// the moment the last worker is up.
	ready func()
}

// checker is the mc.Options.Dist value for an in-process search: the
// tracer on traced passes, else none (a typed nil would not be nil).
func (e *env) checker() mc.DistChecker {
	if e.tr == nil {
		return nil
	}
	return e.tr
}

// passOut is what one pass of a workload measured.
type passOut struct {
	results []mc.Result
	wall    time.Duration // first search call to verdict
	// extra holds the workload-level spans the workload times itself
	// (experiments.*, mc.ckpt.*).
	extra map[string]float64
	dist  *distOut
}

// distOut is what the dist backend reports about its run.
type distOut struct {
	report        dist.Report
	net           *netStats
	snapshotBytes int64
	snapshotFiles int
}

type workload struct {
	name string
	// seedUse says what the seed changes, or why nothing depends on it.
	seedUse string
	run     func(e *env) (passOut, error)
}

var workloads = []workload{
	{"paper_e1e3", "none: the E1 matrix and E2/E3 traces are the paper's fixed configurations", runPaper},
	{"quotient_6n", "none: one fixed model; the level-synchronous search is deterministic", runQuotient},
	{"dist_6n_w2", "none: one fixed model; dist results are byte-identical to the in-process search", runDist},
	{"resume_5n_oracle", "picks the interrupt level from the middle third of the search", runResume},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Pins. The E1–E3 numbers are the paper's (and the repository's) pinned
// enumeration; the others are the repository's measured counts for the
// same models.
const (
	e1HoldStates  = 34920
	e1FailStates  = 22994
	e1FailTrace   = 13
	e2States      = 98401
	e2Transitions = 223791
	e2Trace       = 18
	e3States      = 30458
	e3Transitions = 84203
	e3Trace       = 19
	q6States      = 2453335
	q6Transitions = 7469347
	r5States      = 614424
	r5Transitions = 2113122
	r5Depth       = 32 // BFS depth of the uninterrupted 5-node oracle search
)

func pin(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}

func runPaper(e *env) (passOut, error) {
	opts := mc.Options{Workers: e.workers, Dist: e.checker()}
	out := passOut{extra: map[string]float64{}}
	e.ready()
	t0 := time.Now()
	rows, err := experiments.VerificationMatrix(opts)
	t1 := time.Now()
	if err != nil {
		return out, err
	}
	e2, err := experiments.ColdStartReplayTrace(opts)
	t2 := time.Now()
	if err != nil {
		return out, err
	}
	e3, err := experiments.CStateReplayTrace(opts)
	t3 := time.Now()
	if err != nil {
		return out, err
	}
	out.wall = t3.Sub(t0)
	out.extra["experiments.e1_s"] = t1.Sub(t0).Seconds()
	out.extra["experiments.e2_s"] = t2.Sub(t1).Seconds()
	out.extra["experiments.e3_s"] = t3.Sub(t2).Seconds()
	for _, r := range rows {
		out.results = append(out.results, r.Result)
	}
	out.results = append(out.results, e2.Result, e3.Result)

	if len(rows) != 4 {
		return out, fmt.Errorf("E1: %d matrix rows, want 4", len(rows))
	}
	for _, r := range rows[:3] {
		if !r.Result.Holds {
			return out, fmt.Errorf("E1 %v: property fails, want holds", r.Authority)
		}
		if err := pin(fmt.Sprintf("E1 %v states", r.Authority), r.Result.StatesExplored, e1HoldStates); err != nil {
			return out, err
		}
	}
	full := rows[3].Result
	return out, errors.Join(
		failing("E1 full shifting", full),
		pin("E1 full shifting states", full.StatesExplored, e1FailStates),
		pin("E1 full shifting trace", len(full.Counterexample), e1FailTrace),
		failing("E2", e2.Result),
		pin("E2 states", e2.Result.StatesExplored, e2States),
		pin("E2 transitions", e2.Result.TransitionsExplored, e2Transitions),
		pin("E2 trace", len(e2.Result.Counterexample), e2Trace),
		failing("E3", e3.Result),
		pin("E3 states", e3.Result.StatesExplored, e3States),
		pin("E3 transitions", e3.Result.TransitionsExplored, e3Transitions),
		pin("E3 trace", len(e3.Result.Counterexample), e3Trace),
	)
}

func failing(what string, r mc.Result) error {
	if r.Holds {
		return fmt.Errorf("%s: property holds, want a counterexample", what)
	}
	return nil
}

// holds checks a completed search against its pinned counts.
func holds(what string, r mc.Result, reduced bool, states, transitions int) error {
	if !r.Holds || r.Interrupted || r.Inconclusive || r.DepthBounded {
		return fmt.Errorf("%s: verdict %v, want holds", what, r)
	}
	if r.Reduced != reduced {
		return fmt.Errorf("%s: Reduced=%v, want %v", what, r.Reduced, reduced)
	}
	return errors.Join(pin(what+" states", r.StatesExplored, states),
		pin(what+" transitions", r.TransitionsExplored, transitions))
}

func smallShift(nodes int) (*model.Model, error) {
	return model.New(model.Config{Authority: guardian.AuthoritySmallShift, Nodes: nodes})
}

func runQuotient(e *env) (passOut, error) {
	var out passOut
	m, err := smallShift(6)
	if err != nil {
		return out, err
	}
	e.ready()
	t0 := time.Now()
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(),
		mc.Options{Workers: e.workers, Dist: e.checker()})
	out.wall = time.Since(t0)
	out.results = []mc.Result{res}
	if err != nil {
		return out, err
	}
	return out, holds("quotient_6n", res, true, q6States, q6Transitions)
}

func runDist(e *env) (passOut, error) {
	m, err := smallShift(6)
	if err != nil {
		return passOut{}, err
	}
	out, err := distSearch(e, m)
	if err != nil {
		return out, err
	}
	return out, holds("dist_6n_w2", out.results[0], true, q6States, q6Transitions)
}

// distSearch checks m through dist.Checker with e.workers goroutine
// workers on the socket mesh.
func distSearch(e *env, m *model.Model) (passOut, error) {
	var out passOut
	snapDir := filepath.Join(e.dir, "snap")
	meshDir := filepath.Join(e.dir, "mesh")
	for _, d := range []string{snapDir, meshDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return out, err
		}
	}
	ns := &netStats{}
	l := newLauncher(meshDir, ns)
	l.onListen = func(n int) {
		if n == e.workers {
			e.ready()
		}
	}
	ck := &dist.Checker{Opts: dist.Options{Workers: e.workers, Launcher: l, SnapshotDir: snapDir}}
	var d mc.DistChecker = ck
	if e.tr != nil {
		e.tr.inner = ck
		d = e.tr
	}
	t0 := time.Now()
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(),
		mc.Options{Workers: e.workers, Dist: d})
	out.wall = time.Since(t0)
	l.wait()
	out.results = []mc.Result{res}
	if err != nil {
		return out, err
	}
	do := &distOut{report: ck.Report(), net: ns}
	if do.snapshotBytes, do.snapshotFiles, err = dirSize(snapDir); err != nil {
		return out, err
	}
	out.dist = do
	return out, nil
}

func dirSize(dir string) (int64, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, 0, err
		}
		total += info.Size()
	}
	return total, len(ents), nil
}

// interruptLevel picks the seeded interrupt level from the middle third
// of the search's r5Depth levels.
func interruptLevel(seed uint64) int {
	lo, hi := (r5Depth+2)/3, 2*r5Depth/3 // ceil(D/3) .. floor(2D/3)
	return lo + int(seed%uint64(hi-lo+1))
}

func runResume(e *env) (passOut, error) {
	out := passOut{extra: map[string]float64{}}
	m, err := smallShift(5)
	if err != nil {
		return out, err
	}
	path := filepath.Join(e.dir, "resume.ckpt")
	at := interruptLevel(e.seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelled time.Time
	opts := mc.Options{
		Workers: e.workers, NoReduce: true, Dist: e.checker(),
		CheckpointPath: path, CheckpointEvery: 1, Context: ctx,
		Progress: func(p mc.Progress) {
			if p.Depth == at {
				cancelled = time.Now()
				cancel()
			}
		},
	}
	e.ready()
	t0 := time.Now()
	part, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
	stopped := time.Now()
	out.results = append(out.results, part)
	if !errors.Is(err, mc.ErrInterrupted) || !part.Interrupted {
		return out, fmt.Errorf("resume_5n_oracle: interrupt at level %d: got %v, %v", at, part, err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return out, fmt.Errorf("resume_5n_oracle: no checkpoint after the interrupt: %w", err)
	}
	out.extra["mc.ckpt.bytes"] = float64(info.Size())
	out.extra["mc.ckpt.interrupt_s"] = stopped.Sub(cancelled).Seconds()

	var firstLevel time.Time
	opts.Context = nil
	opts.ResumePath = path
	opts.Progress = func(mc.Progress) {
		if firstLevel.IsZero() {
			firstLevel = time.Now()
		}
	}
	t1 := time.Now()
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
	out.wall = time.Since(t0)
	out.extra["mc.ckpt.resume_s"] = firstLevel.Sub(t1).Seconds()
	out.results = append(out.results, res)
	if err != nil {
		return out, err
	}
	return out, errors.Join(holds("resume_5n_oracle", res, false, r5States, r5Transitions),
		pin("resume_5n_oracle depth", res.Depth, r5Depth))
}
