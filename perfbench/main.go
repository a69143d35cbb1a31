// Command perfbench is the repository benchmark: it runs one workload
// of the model checker for a fixed time, checks every verdict and count,
// and prints the end-to-end metrics (untraced) or the per-layer metrics
// (traced) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload quotient_6n --seed 1 --seconds 30 --trace 0
//
// run.sh builds this program from the checkout's sources first. Each
// pass of the workload runs in its own child process, so peak RSS and
// GC state never carry over from one pass to the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"ttastar/internal/dist"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics of traced passes")
	work := fs.String("work", ".bench_build", "directory for scratch files, inside the checkout")
	// Child mode: run one pass and report it as JSON.
	child := fs.Bool("child", false, "run one pass (internal)")
	probe := fs.Bool("probe", false, "with -child: stop at the end of set-up (internal)")
	startNs := fs.Int64("start", 0, "with -child: the parent's clock when it started the child (internal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *child {
		return runChild(wl, *seed, *trace == 1, *probe, time.Unix(0, *startNs), *work)
	}
	return runParent(wl, *seed, *seconds, *trace == 1, *work)
}

// passReport is a child's one-line report to its parent.
type passReport struct {
	OK      bool               `json:"ok"`
	Error   string             `json:"error,omitempty"`
	SetupS  float64            `json:"setup_s"`
	WallS   float64            `json:"wall_s,omitempty"`
	Results []resultSig        `json:"results,omitempty"`
	Extra   map[string]float64 `json:"extra,omitempty"`
	Layer   map[string]float64 `json:"layer,omitempty"`
	// Checks lists the traced cross-checks the pass failed.
	Checks []string `json:"checks,omitempty"`
}

func emit(r passReport) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of numbers and strings
	}
	fmt.Println(string(b))
}

// runChild runs one pass. GOMAXPROCS, the engine's workers and the dist
// worker count all equal the CPU count.
func runChild(wl workload, seed uint64, traced, probe bool, start time.Time, dir string) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	e := &env{workers: nproc, seed: seed, dir: dir}
	var once sync.Once
	var setup time.Duration
	e.ready = func() {
		once.Do(func() {
			setup = time.Since(start)
			if probe {
				emit(passReport{OK: true, SetupS: setup.Seconds()})
				os.Exit(0)
			}
		})
	}
	if traced {
		e.tr = &tracer{}
		dist.RegisterModel("tta", e.tr.build)
	} else {
		dist.RegisterModel("tta", buildTTA)
	}
	out, err := wl.run(e)
	rep := passReport{SetupS: setup.Seconds(), WallS: out.wall.Seconds(), Extra: out.extra}
	for _, r := range out.results {
		rep.Results = append(rep.Results, signature(r))
	}
	if err != nil {
		rep.Error = err.Error()
	} else {
		rep.OK = true
	}
	if traced && err == nil {
		t := analyze(e.tr.searches, out)
		rep.Layer, rep.Checks = t.metrics, t.failures
		t.printTable(os.Stderr, wl.name)
	}
	emit(rep)
	return nil
}
