package main

// The parent process: set-up probes, then passes until the run's time
// is spent, then the medians as one JSON line.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ttastar/internal/mc"
)

const (
	// setupProbes children per run stop at the end of set-up, so
	// setup_s is a median over many set-ups even where a pass is long.
	setupProbes = 15
	// minPasses is the fewest passes a run makes, traced ones included.
	minPasses = 2
	// childTimeout bounds one child; a run must end within 180 s.
	childTimeout = 150 * time.Second
)

// resultSig is the part of an mc.Result a traced pass must reproduce.
type resultSig struct {
	Holds       bool   `json:"holds"`
	Interrupted bool   `json:"interrupted"`
	Reduced     bool   `json:"reduced"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
	Trace       int    `json:"trace"`
	TraceHash   uint64 `json:"trace_hash"`
}

func signature(r mc.Result) resultSig {
	h := fnv.New64a()
	for _, s := range r.Counterexample {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return resultSig{Holds: r.Holds, Interrupted: r.Interrupted, Reduced: r.Reduced,
		States: r.StatesExplored, Transitions: r.TransitionsExplored, Depth: r.Depth,
		Trace: len(r.Counterexample), TraceHash: h.Sum64()}
}

// pass is one finished child.
type pass struct {
	rep    passReport
	cpu    time.Duration
	rssMB  float64
	traced bool
	err    error // the child did not report
}

func (p pass) ok() bool { return p.err == nil && p.rep.OK && len(p.rep.Checks) == 0 }

type runner struct {
	self, work string
	wl         workload
	seed       uint64
	n          int
}

func (r *runner) spawn(traced, probe bool) pass {
	r.n++
	dir := filepath.Join(r.work, fmt.Sprintf("pass-%d", r.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return pass{err: err}
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", r.wl.name, "-seed", strconv.FormatUint(r.seed, 10),
		"-work", dir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if probe {
		args = append(args, "-probe")
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, r.self)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	cmd.Args = append([]string{r.self}, append(args, "-start", strconv.FormatInt(start.UnixNano(), 10))...)
	err := cmd.Run()
	p := pass{traced: traced}
	if cmd.ProcessState == nil {
		p.err = fmt.Errorf("child: %w", err)
		return p
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		p.err = fmt.Errorf("child: %w", err)
		return p
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.rep); err != nil {
		p.err = fmt.Errorf("child report: %w", err)
	}
	return p
}

func runParent(wl workload, seed uint64, seconds int, traced bool, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work = filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &runner{self: self, work: work, wl: wl, seed: seed}

	var setups []float64
	if !traced {
		for i := 0; i < setupProbes; i++ {
			p := r.spawn(false, true)
			if p.err != nil || !p.rep.OK {
				return fmt.Errorf("set-up probe failed: %v %s", p.err, p.rep.Error)
			}
			setups = append(setups, p.rep.SetupS)
		}
	}

	// Closed loop: the next pass starts when the previous one has ended.
	// A run makes at least minPasses passes, so every median has two
	// samples, then starts none that would likely end past the run's
	// time. A traced run alternates untraced and traced passes so the
	// overhead compares neighbours.
	budget := time.Duration(seconds) * time.Second
	t0 := time.Now()
	var passes []pass
	for last := time.Duration(0); len(passes) < minPasses || time.Since(t0)+last <= budget; {
		s := time.Now()
		passes = append(passes, r.spawn(false, false))
		if traced {
			passes = append(passes, r.spawn(true, false))
		}
		last = time.Since(s)
	}

	// A traced pass must reproduce the untraced results exactly: a
	// wrapper that dropped an interface would change them.
	var base []resultSig
	for _, p := range passes {
		if p.ok() && !p.traced {
			base = p.rep.Results
			break
		}
	}
	for i := range passes {
		if p := &passes[i]; p.ok() && p.traced && !sameResults(p.rep.Results, base) {
			p.rep.Checks = append(p.rep.Checks,
				fmt.Sprintf("traced results %+v differ from untraced %+v", p.rep.Results, base))
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.Attempted++
		if !p.ok() {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed pass: %v %s %v\n", p.err, p.rep.Error, p.rep.Checks)
		}
	}
	res.Correct = res.Failed == 0

	// pick collects a value from every good pass of one kind that has it.
	pick := func(tracedPass bool, f func(pass) (float64, bool)) []float64 {
		var v []float64
		for _, p := range passes {
			if x, ok := f(p); ok && p.ok() && p.traced == tracedPass {
				v = append(v, x)
			}
		}
		return v
	}
	field := func(f func(pass) float64) func(pass) (float64, bool) {
		return func(p pass) (float64, bool) { return f(p), true }
	}
	wall := pick(false, field(func(p pass) float64 { return p.rep.WallS }))
	if !traced {
		res.put("wall_s", median(wall))
		res.put("cpu_s", median(pick(false, field(func(p pass) float64 { return p.cpu.Seconds() }))))
		res.put("peak_rss_mb", median(pick(false, field(func(p pass) float64 { return p.rssMB }))))
		res.put("setup_s", median(append(setups, pick(false, field(func(p pass) float64 { return p.rep.SetupS }))...)))
	} else {
		for _, d := range perLayer {
			name := d.name
			// Spans the workload times itself come from the untraced
			// passes; the rest need the tracing wrappers.
			v := pick(false, func(p pass) (float64, bool) { x, ok := p.rep.Extra[name]; return x, ok })
			if len(v) == 0 {
				v = pick(true, func(p pass) (float64, bool) { x, ok := p.rep.Layer[name]; return x, ok })
			}
			if len(v) > 0 {
				res.put(name, median(v))
			}
		}
		if tw := pick(true, field(func(p pass) float64 { return p.rep.WallS })); len(tw) > 0 && len(wall) > 0 {
			res.put("trace.overhead_ratio", median(tw)/median(wall))
		}
		res.fillLayers()
	}
	res.print(os.Stdout, wl, len(wall), traced)
	return nil
}

func sameResults(a, b []resultSig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
