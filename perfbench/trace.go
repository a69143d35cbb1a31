package main

// Tracing from outside the program. The tracer is an mc.DistChecker, so
// plugging it into mc.Options.Dist hands it every search a workload
// starts — including the ones experiments.VerificationMatrix and the
// replay traces start on models they build themselves. It re-runs each
// search on a wrapper of the model that times every call into the model
// layer, on the backend the workload asked for (the in-process engine,
// or the dist.Checker it was given).
//
// Spans are not recorded per call: the 6-node quotient makes millions of
// canonicalize calls. Each expander and invariant wrapper instead keeps
// one count plus busy nanoseconds per (level, layer), and owns them
// alone where it can, so the hot path takes no lock.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ttastar/internal/dist"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// Model-layer spans, in table order.
const (
	layerExpand = iota // Expander.Successors
	layerCanon         // CanonicalExpander.Canonicalize
	layerInv           // the PropertyBytes transition invariant
	numLayers
)

var layerNames = [numLayers]string{"expand", "canon", "inv"}

// maxLevels bounds the per-level span tables. The deepest search the
// workloads run has well under 100 levels; deeper levels share the last
// row, which the level-count cross-check would expose.
const maxLevels = 256

// span is one (level, layer) aggregate of one worker.
type span struct {
	calls int64
	ns    int64
	items int64 // successors returned (expand only)
}

// spans is a single-goroutine (level, layer) table: each engine worker
// owns its expander, so its expander's table needs no synchronization
// until the search has returned.
type spans [maxLevels][numLayers]span

// atomicSpan is the invariant's aggregate: in-process, one invariant
// closure serves every engine worker.
type atomicSpan struct {
	calls, ns atomic.Int64
}

// worker is the attribution unit of a search: an in-process engine
// worker (one expander), or a dist worker (the model its builder made).
type worker struct {
	name string
	sp   spans
	inv  [maxLevels]atomicSpan
}

func (w *worker) busy(level int) int64 {
	row := &w.sp[level]
	return row[layerExpand].ns + row[layerCanon].ns + w.inv[level].ns.Load()
}

// search is the trace of one check.
type search struct {
	level atomic.Int32 // levels completed so far: the span row being filled

	mu      sync.Mutex
	workers []*worker
	built   int // dist workers built so far

	start, end time.Time
	levelEnds  []time.Time // one per Progress call
	stats      *mc.Stats
	res        mc.Result
	inits      int
	cpu        time.Duration // process CPU across the search
	gcCycles   uint32
	gcPause    time.Duration
	allocB     uint64 // process-wide heap allocation deltas across the search
	allocs     uint64
}

func (s *search) lvl() int {
	l := int(s.level.Load())
	if l >= maxLevels {
		l = maxLevels - 1
	}
	return l
}

func (s *search) newWorker(name string) *worker {
	w := &worker{name: name}
	s.mu.Lock()
	s.workers = append(s.workers, w)
	s.mu.Unlock()
	return w
}

// tracer intercepts searches through mc.Options.Dist.
type tracer struct {
	inner mc.DistChecker // nil: the in-process engine

	mu       sync.Mutex
	searches []*search
	cur      *search // the search dist worker builders attach to
}

var _ mc.DistChecker = (*tracer)(nil)

func (t *tracer) current() *search {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// DistCheck runs the search on a traced wrapper of m.
func (t *tracer) DistCheck(m mc.Model, stInv mc.StateInvariantBytes,
	trInv mc.TransitionInvariantBytes, opts mc.Options) (mc.Result, error) {
	tm, ok := m.(*model.Model)
	if !ok {
		return mc.Result{}, fmt.Errorf("perfbench: cannot trace model %T", m)
	}
	if stInv != nil || trInv == nil {
		return mc.Result{}, fmt.Errorf("perfbench: only transition-invariant checks are traced")
	}
	s := &search{inits: len(tm.Initial())}
	t.mu.Lock()
	t.searches = append(t.searches, s)
	t.cur = s
	t.mu.Unlock()

	// In-process each expander is an engine worker and the invariant is
	// shared by all of them; under dist the coordinator's model only
	// canonicalizes the initial states, and each worker's builder
	// attaches its own model.
	var wrapped *tracedModel
	var inv mc.TransitionInvariantBytes
	if t.inner == nil {
		n := 0
		wrapped = &tracedModel{Model: tm, s: s, owner: func() *worker {
			n++ // the engine creates its expanders serially, in worker order
			return s.newWorker(fmt.Sprintf("w%d", n-1))
		}}
		inv = tracedInv(trInv, s, s.newWorker("all"))
	} else {
		coord := s.newWorker("coord")
		wrapped = &tracedModel{Model: tm, s: s, owner: func() *worker { return coord }}
		inv = tracedInv(trInv, s, coord)
	}

	user := opts.Progress
	opts.Progress = func(p mc.Progress) {
		s.levelEnds = append(s.levelEnds, time.Now())
		s.level.Store(int32(len(s.levelEnds)))
		if user != nil {
			user(p)
		}
	}
	opts.Stats = func(st mc.Stats) { s.stats = &st }
	opts.Dist = t.inner

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	s.start = time.Now()
	res, err := mc.CheckTransitionInvariantBytes(wrapped, inv, opts)
	s.end = time.Now()
	s.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	s.gcCycles = ms1.NumGC - ms0.NumGC
	s.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	s.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	s.allocs = ms1.Mallocs - ms0.Mallocs
	s.res = res
	return res, err
}

// build is the traced "tta" dist builder: each worker rebuilds the model
// through it, so each gets its own attribution unit.
func (t *tracer) build(payload string) (dist.ModelSpec, error) {
	spec, err := buildTTA(payload)
	if err != nil {
		return spec, err
	}
	s := t.current()
	if s == nil {
		return spec, fmt.Errorf("perfbench: dist worker built outside a traced search")
	}
	s.mu.Lock()
	name := fmt.Sprintf("w%d", s.built) // in configure order, not dist's index
	s.built++
	s.mu.Unlock()
	w := s.newWorker(name)
	spec.Model = &tracedModel{Model: spec.Model.(*model.Model), s: s, owner: func() *worker { return w }}
	spec.TrInv = tracedInv(spec.TrInv, s, w)
	return spec, nil
}

// buildTTA rebuilds a model from its DistSpec payload, as ttamc's "tta"
// builder does.
func buildTTA(payload string) (dist.ModelSpec, error) {
	var cfg model.Config
	if err := json.Unmarshal([]byte(payload), &cfg); err != nil {
		return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
	}
	m, err := model.New(cfg)
	if err != nil {
		return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
	}
	return dist.ModelSpec{Model: m, TrInv: m.PropertyBytes()}, nil
}

// tracedModel wraps *model.Model and forwards every interface the
// engine and the dist backend look for. Successors (the string form) is
// forwarded untimed: the engines expand through NewExpander.
type tracedModel struct {
	*model.Model
	s     *search
	owner func() *worker // the worker a new expander's spans belong to
}

var (
	_ mc.ExpanderModel      = (*tracedModel)(nil)
	_ mc.ReducibleModel     = (*tracedModel)(nil)
	_ mc.FingerprintedModel = (*tracedModel)(nil)
	_ dist.SpeccedModel     = (*tracedModel)(nil)
)

func (m *tracedModel) NewExpander() mc.Expander {
	return &tracedExpander{e: m.Model.NewExpander(), s: m.s, w: m.owner()}
}

func (m *tracedModel) NewReducedExpander() mc.CanonicalExpander {
	ce := m.Model.NewReducedExpander()
	return &tracedCanonExpander{tracedExpander{e: ce, s: m.s, w: m.owner()}, ce}
}

type tracedExpander struct {
	e mc.Expander
	s *search
	w *worker
}

func (x *tracedExpander) Successors(enc []byte) [][]byte {
	t0 := time.Now()
	out := x.e.Successors(enc)
	sp := &x.w.sp[x.s.lvl()][layerExpand]
	sp.ns += int64(time.Since(t0))
	sp.calls++
	sp.items += int64(len(out))
	return out
}

type tracedCanonExpander struct {
	tracedExpander
	ce mc.CanonicalExpander
}

func (x *tracedCanonExpander) Canonicalize(enc []byte) {
	t0 := time.Now()
	x.ce.Canonicalize(enc)
	sp := &x.w.sp[x.s.lvl()][layerCanon]
	sp.ns += int64(time.Since(t0))
	sp.calls++
}

// tracedInv times an invariant into w's atomic invariant spans.
func tracedInv(inv mc.TransitionInvariantBytes, s *search, w *worker) mc.TransitionInvariantBytes {
	return func(from, to []byte) bool {
		t0 := time.Now()
		ok := inv(from, to)
		sp := &w.inv[s.lvl()]
		sp.ns.Add(int64(time.Since(t0)))
		sp.calls.Add(1)
		return ok
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
