package main

// Metric names and units, the per-layer analysis of a traced pass, its
// cross-checks, and the output format.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metricDef is one reported metric. note marks derived values and where
// a span's boundaries sit.
type metricDef struct {
	name, unit, note string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "first search call to verdict, median over passes"},
	{"cpu_s", "s", "child user+system CPU, median over passes"},
	{"peak_rss_mb", "MiB", "child Maxrss, median over passes"},
	{"setup_s", "s", "process start to first search call (dist: to the last worker up), median over probes and passes"},
}

var perLayer = []metricDef{
	{"model.expand.calls", "count", "Expander.Successors calls"},
	{"model.expand.busy_s", "s", "time inside Successors, summed over workers"},
	{"model.expand.succs", "count", "successors returned"},
	{"model.canon.calls", "count", "CanonicalExpander.Canonicalize calls"},
	{"model.canon.busy_s", "s", "time inside Canonicalize, summed over workers"},
	{"model.inv.calls", "count", "PropertyBytes invariant calls"},
	{"model.inv.busy_s", "s", "time inside the invariant, summed over workers"},
	{"mc.level.count", "count", "completed BFS levels (Progress calls)"},
	{"mc.level.wall_s", "s", "sum of Progress-to-Progress level spans; periodic checkpoint writes fall inside the next level's span"},
	{"mc.level.max_s", "s", "longest level span"},
	{"mc.engine.self_cpu_s", "s", "derived: search CPU minus model busy time (claim, sort, seal, sync, GC)"},
	{"mc.states", "count", "states of the completed searches"},
	{"mc.transitions", "count", "transitions of the completed searches"},
	{"mc.claim.new_ratio", "ratio", "states over claim attempts"},
	{"mc.peak_frontier", "count", "largest frontier"},
	{"mc.claim.mean_probe", "count", "mean claim probe length from Stats.ProbeHist (last bucket counted as 8)"},
	{"mc.visited.peak_resident_B", "B", "visited-set resident high-water mark"},
	{"mc.visited.load_factor", "ratio", "final occupancy of the largest search's visited set"},
	{"mc.sealed.states", "count", "states in the sealed tier at search end"},
	{"mc.sealed.arena_B", "B", "sealed encoding arena bytes"},
	{"mc.sealed.index_B", "B", "sealed probe index bytes"},
	{"mc.alloc_B", "B", "heap bytes allocated across the searches"},
	{"mc.allocs", "count", "heap allocations across the searches"},
	{"mc.ckpt.bytes", "B", "checkpoint file size at the interrupt"},
	{"mc.ckpt.interrupt_s", "s", "cancel to return of the interrupted search (one periodic and one interrupt write)"},
	{"mc.ckpt.resume_s", "s", "resume call to its first Progress (read, restore, one level)"},
	{"runtime.gc.cycles", "count", "GC cycles during the searches"},
	{"runtime.gc.pause_s", "s", "GC stop-the-world pause time during the searches"},
	{"dist.wire.frames", "count", "frames on the wire, from Checker.Report"},
	{"dist.wire.bytes", "B", "bytes on the wire, from Checker.Report"},
	{"dist.ctrl.bytes", "B", "coordinator-worker bytes, both directions"},
	{"dist.mesh.bytes", "B", "worker-to-worker bytes written"},
	{"dist.mesh.write_s", "s", "time inside mesh writes"},
	{"dist.worker.busy_max_s", "s", "model busy time of the busiest worker"},
	{"dist.worker.imbalance", "ratio", "busiest worker's model time over the mean"},
	{"dist.barrier.residual_s", "s", "derived: level wall minus the busiest worker's model time (route, claim, barrier, snapshot)"},
	{"dist.snapshot.bytes", "B", "barrier snapshot bytes left in SnapshotDir"},
	{"dist.snapshot.files", "count", "barrier snapshot files left in SnapshotDir"},
	{"dist.reexpanded_transitions", "count", "work redone after crashes"},
	{"dist.respawns", "count", "worker respawns"},
	{"experiments.e1_s", "s", "VerificationMatrix wall, untraced"},
	{"experiments.e2_s", "s", "ColdStartReplayTrace wall, untraced"},
	{"experiments.e3_s", "s", "CStateReplayTrace wall, untraced"},
	{"trace.overhead_ratio", "ratio", "traced pass wall over untraced pass wall"},
}

var allMetrics = append(append([]metricDef{}, endToEnd...), perLayer...)

func findDef(name string) (metricDef, bool) {
	for _, d := range allMetrics {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// traceAnalysis is the per-layer view of one traced pass.
type traceAnalysis struct {
	metrics  map[string]float64
	failures []string
	searches []*search
}

// levelSpans returns a search's Progress-delimited level spans.
func (s *search) levelSpans() []time.Duration {
	spans := make([]time.Duration, len(s.levelEnds))
	prev := s.start
	for i, t := range s.levelEnds {
		spans[i] = t.Sub(prev)
		prev = t
	}
	return spans
}

func (s *search) total(layer int) (calls, ns, items int64) {
	for _, w := range s.workers {
		for l := range w.sp {
			sp := w.sp[l][layer]
			if layer == layerInv {
				sp = span{calls: w.inv[l].calls.Load(), ns: w.inv[l].ns.Load()}
			}
			calls += sp.calls
			ns += sp.ns
			items += sp.items
		}
	}
	return
}

// analyze turns a traced pass's spans into the per-layer metrics and
// runs the cross-checks.
func analyze(searches []*search, out passOut) traceAnalysis {
	t := traceAnalysis{metrics: map[string]float64{}, searches: searches}
	m := t.metrics
	fail := func(format string, args ...any) { t.failures = append(t.failures, fmt.Sprintf(format, args...)) }
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }

	var busy, probes, claims int64
	var levelWall, levelMax time.Duration
	var cpu time.Duration
	var states, transitions, attempts int
	var largest *search
	// The dist backend's mc.Stats leaves the visited-set, probe and
	// sealed-tier fields at 0 because it does not measure them: analyze
	// leaves them out for it. Allocations are measured here instead, as
	// the engine does in process: heap deltas of the whole process.
	inProcess := out.dist == nil
	// A chain is an interrupted search plus the searches that resume it,
	// up to the one that completes; the call counts of a completed chain
	// must match its result.
	var chain [numLayers]int64
	for i, s := range searches {
		for layer := 0; layer < numLayers; layer++ {
			calls, ns, items := s.total(layer)
			name := "model." + layerNames[layer]
			m[name+".calls"] += float64(calls)
			m[name+".busy_s"] += secs(ns)
			if layer == layerExpand {
				m[name+".succs"] += float64(items)
			}
			busy += ns
			chain[layer] += calls
		}
		for _, d := range s.levelSpans() {
			levelWall += d
			if d > levelMax {
				levelMax = d
			}
		}
		m["mc.level.count"] += float64(len(s.levelEnds))
		cpu += s.cpu
		m["runtime.gc.cycles"] += float64(s.gcCycles)
		m["runtime.gc.pause_s"] += s.gcPause.Seconds()
		m["mc.alloc_B"] += float64(s.allocB)
		m["mc.allocs"] += float64(s.allocs)

		if st := s.stats; st != nil {
			m["mc.peak_frontier"] = max(m["mc.peak_frontier"], float64(st.PeakFrontier))
		}
		if st := s.stats; st != nil && inProcess {
			for b, n := range st.ProbeHist {
				probes += int64(b+1) * int64(n)
				claims += int64(n)
			}
			m["mc.visited.peak_resident_B"] = max(m["mc.visited.peak_resident_B"], float64(st.PeakResidentBytes))
		}
		if s.res.Interrupted {
			continue
		}

		r := s.res
		states += r.StatesExplored
		transitions += r.TransitionsExplored
		attempts += r.TransitionsExplored + s.inits
		if largest == nil || r.StatesExplored > largest.res.StatesExplored {
			largest = s
		}
		if st := s.stats; st != nil && inProcess {
			m["mc.sealed.states"] += float64(st.SealedStates)
			m["mc.sealed.arena_B"] += float64(st.SealedArenaBytes)
			m["mc.sealed.index_B"] += float64(st.SealedIndexBytes)
		}

		// Cross-checks on the completed chain.
		if !r.Reduced && chain[layerCanon] != 0 {
			fail("search %d: %d canonicalize calls in oracle mode", i, chain[layerCanon])
		}
		if r.Holds && !r.DepthBounded {
			if chain[layerExpand] != int64(r.StatesExplored) {
				fail("search %d: %d expand calls for %d states", i, chain[layerExpand], r.StatesExplored)
			}
			if chain[layerInv] != int64(r.TransitionsExplored) {
				fail("search %d: %d invariant calls for %d transitions", i, chain[layerInv], r.TransitionsExplored)
			}
			if r.Reduced && chain[layerCanon] != int64(r.TransitionsExplored+s.inits) {
				fail("search %d: %d canonicalize calls for %d transitions + %d initial states",
					i, chain[layerCanon], r.TransitionsExplored, s.inits)
			}
			// Only result assembly follows the last level of a holding
			// search, so the level spans must cover nearly all of it.
			var sum time.Duration
			for _, d := range s.levelSpans() {
				sum += d
			}
			if wall := s.end.Sub(s.start); sum < wall*95/100 {
				fail("search %d: level spans sum to %v of a %v search", i, sum, wall)
			}
		}
		chain = [numLayers]int64{}
	}

	m["mc.level.wall_s"] = levelWall.Seconds()
	m["mc.level.max_s"] = levelMax.Seconds()
	m["mc.engine.self_cpu_s"] = (cpu - time.Duration(busy)).Seconds()
	m["mc.states"] = float64(states)
	m["mc.transitions"] = float64(transitions)

	if inProcess && claims > 0 {
		m["mc.claim.mean_probe"] = float64(probes) / float64(claims)
		attempts = int(claims)
	}
	if inProcess && largest != nil && largest.stats != nil {
		m["mc.visited.load_factor"] = largest.stats.LoadFactor
	}
	if attempts > 0 {
		m["mc.claim.new_ratio"] = float64(states) / float64(attempts)
	}
	if out.dist != nil {
		t.distMetrics(out.dist)
	}
	return t
}

// distMetrics adds the dist layer: the wire ledger, the connection
// counters and the per-worker model time. Workers are the dist workers
// (w*), not the coordinator.
func (t *traceAnalysis) distMetrics(d *distOut) {
	m := t.metrics
	m["dist.wire.frames"] = float64(d.report.Frames)
	m["dist.wire.bytes"] = float64(d.report.BytesOnWire)
	m["dist.ctrl.bytes"] = float64(d.net.ctrlBytes.Load())
	m["dist.mesh.bytes"] = float64(d.net.meshBytes.Load())
	m["dist.mesh.write_s"] = float64(d.net.meshWriteNs.Load()) / 1e9
	m["dist.snapshot.bytes"] = float64(d.snapshotBytes)
	m["dist.snapshot.files"] = float64(d.snapshotFiles)
	m["dist.reexpanded_transitions"] = float64(d.report.ReexpandedTransitions)
	m["dist.respawns"] = float64(d.report.Respawns)

	var busyMax, busySum, residual float64
	n := 0
	for _, s := range t.searches {
		spans := s.levelSpans()
		perWorker := map[*worker]int64{}
		for l, d := range spans {
			var top int64
			for _, w := range s.workers {
				if w.name == "coord" {
					continue
				}
				b := w.busy(l)
				perWorker[w] += b
				top = max(top, b)
			}
			residual += (d - time.Duration(top)).Seconds()
		}
		for _, b := range perWorker {
			busyMax = max(busyMax, float64(b)/1e9)
			busySum += float64(b) / 1e9
			n++
		}
	}
	m["dist.worker.busy_max_s"] = busyMax
	if n > 0 && busySum > 0 {
		m["dist.worker.imbalance"] = busyMax / (busySum / float64(n))
	}
	m["dist.barrier.residual_s"] = residual
}

// printTable writes the (search, level, layer, worker) spans.
func (t *traceAnalysis) printTable(w io.Writer, workload string) {
	fmt.Fprintf(w, "# %s spans: search level worker layer calls busy_ms (level_ms)\n", workload)
	for i, s := range t.searches {
		spans := s.levelSpans()
		for l := 0; l <= len(spans) && l < maxLevels; l++ {
			levelMs := "tail"
			if l < len(spans) {
				levelMs = fmt.Sprintf("%.3f", float64(spans[l])/1e6)
			}
			for _, wk := range s.workers {
				for layer := 0; layer < numLayers; layer++ {
					sp := wk.sp[l][layer]
					if layer == layerInv {
						sp = span{calls: wk.inv[l].calls.Load(), ns: wk.inv[l].ns.Load()}
					}
					if sp.calls == 0 {
						continue
					}
					fmt.Fprintf(w, "%d %d %s %s %d %.3f (%s)\n", i, l, wk.name, layerNames[layer],
						sp.calls, float64(sp.ns)/1e6, levelMs)
				}
			}
		}
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// unexercised are the per-layer metrics reported as 0 because no
	// pass measured them.
	unexercised map[string]bool
}

func (r *result) put(name string, v float64) {
	d, ok := findDef(name)
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
}

// fillLayers reports 0 for every per-layer metric no pass measured, so a
// traced line always holds all of them. The layer did no work on this
// workload (dist.* outside dist_6n_w2, mc.ckpt.* outside
// resume_5n_oracle, experiments.* outside paper_e1e3), or the dist
// backend does not measure it (mc.visited.*, mc.claim.mean_probe and
// mc.sealed.* on dist_6n_w2).
func (r *result) fillLayers() {
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.name]; !ok {
			r.put(d.name, 0)
			if r.unexercised == nil {
				r.unexercised = map[string]bool{}
			}
			r.unexercised[d.name] = true
		}
	}
}

// print writes one human-readable line per metric, then the JSON line.
func (r *result) print(w io.Writer, wl workload, passes int, traced bool) {
	fmt.Fprintf(w, "# workload %s (seed: %s): %d untraced passes\n", wl.name, wl.seedUse, passes)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, _ := findDef(name)
		note := d.note
		if r.unexercised[name] {
			note = "not measured on this workload"
		}
		fmt.Fprintf(w, "# %-28s %16.6g %-6s %s\n", name, r.Metrics[name].Value, d.unit, note)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}
