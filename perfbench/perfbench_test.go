package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"ttastar/internal/dist"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// The wrapper must forward every optional interface *model.Model
// implements; a dropped ReducibleModel would silently benchmark the
// oracle instead of the quotient.
func TestTracedModelForwardsEveryInterface(t *testing.T) {
	m, err := smallShift(4)
	if err != nil {
		t.Fatal(err)
	}
	s := &search{}
	w := s.newWorker("w0")
	var tm mc.Model = &tracedModel{Model: m, s: s, owner: func() *worker { return w }}

	for name, implements := range map[string]func(mc.Model) bool{
		"mc.ExpanderModel":      func(x mc.Model) bool { _, ok := x.(mc.ExpanderModel); return ok },
		"mc.ReducibleModel":     func(x mc.Model) bool { _, ok := x.(mc.ReducibleModel); return ok },
		"mc.FingerprintedModel": func(x mc.Model) bool { _, ok := x.(mc.FingerprintedModel); return ok },
		"dist.SpeccedModel":     func(x mc.Model) bool { _, ok := x.(dist.SpeccedModel); return ok },
	} {
		if !implements(m) {
			t.Errorf("*model.Model no longer implements %s; drop it from this test", name)
		}
		if !implements(tm) {
			t.Errorf("tracedModel does not forward %s", name)
		}
	}
	if got, want := tm.(mc.FingerprintedModel).Fingerprint(), m.Fingerprint(); got != want {
		t.Errorf("Fingerprint = %x, want %x", got, want)
	}
	gn, gp := tm.(dist.SpeccedModel).DistSpec()
	wn, wp := m.DistSpec()
	if gn != wn || gp != wp {
		t.Errorf("DistSpec = %q %q, want %q %q", gn, gp, wn, wp)
	}
	if !tm.(mc.ReducibleModel).Reducible() {
		t.Error("Reducible() = false")
	}
	ce := tm.(mc.ReducibleModel).NewReducedExpander()
	enc := []byte(m.Initial()[0])
	ce.Successors(enc)
	ce.Canonicalize(enc)
	if w.sp[0][layerExpand].calls != 1 || w.sp[0][layerCanon].calls != 1 {
		t.Errorf("spans = %+v, want one expand and one canonicalize call", w.sp[0])
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range allMetrics {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the perfbench output must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesPerfbench(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench has %d", names, len(workloads))
	}
	check := func(kind string, declared []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(declared) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(declared))
		}
		for i := range got {
			if i < len(declared) && (got[i].Name != declared[i].name || got[i].Unit != declared[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], perfbench %s [%s]", kind, i,
					got[i].Name, got[i].Unit, declared[i].name, declared[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// parseResult checks the last output line against BENCHMARK.json: the
// exact top-level keys, and only declared metrics with their units.
func parseResult(t *testing.T, out string, bf benchmarkFile, traced bool) map[string]metricValue {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := top[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(top) != 4 {
		t.Errorf("result has keys %v", top)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	decl := bf.EndToEnd
	if traced {
		decl = bf.PerLayer
	}
	for _, d := range decl {
		units[d.Name] = d.Unit
	}
	for name, v := range metrics {
		if u, ok := units[name]; !ok || u != v.Unit {
			t.Errorf("metric %s [%s] is not declared in BENCHMARK.json", name, v.Unit)
		}
	}
	for _, d := range decl {
		if _, ok := metrics[d.Name]; !ok {
			t.Errorf("result lacks declared metric %s", d.Name)
		}
	}
	return metrics
}

// A traced pass of the paper workload passes its pins and every
// cross-check, and its metrics are the declared per-layer ones.
func TestTracedPaperPass(t *testing.T) {
	e := &env{workers: 2, dir: t.TempDir(), tr: &tracer{}, ready: func() {}}
	out, err := runPaper(e)
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(e.tr.searches, out)
	if len(a.failures) != 0 {
		t.Fatalf("cross-checks failed: %v", a.failures)
	}
	if got := a.metrics["model.canon.calls"]; got != 0 {
		t.Errorf("oracle workload made %v canonicalize calls", got)
	}
	for _, name := range []string{"model.expand.calls", "model.inv.calls", "mc.level.count", "mc.alloc_B"} {
		if a.metrics[name] <= 0 {
			t.Errorf("%s = %v", name, a.metrics[name])
		}
	}
	r := result{Metrics: map[string]metricValue{}}
	for name, v := range a.metrics {
		r.put(name, v)
	}
	for name, v := range out.extra {
		r.put(name, v)
	}
	r.fillLayers()
	var buf bytes.Buffer
	r.print(&buf, workloads[0], 1, true)
	got := parseResult(t, buf.String(), readBenchmarkFile(t), true)
	for _, name := range []string{"dist.wire.frames", "mc.ckpt.bytes"} {
		if !r.unexercised[name] || got[name].Value != 0 {
			t.Errorf("%s = %v on the paper workload, want an unexercised 0", name, got[name].Value)
		}
	}
}

// A traced dist search through the benchmark's launcher equals the
// in-process one, passes the cross-checks, and reports the dist layer
// and its allocations but none of the visited-set metrics the dist
// backend does not measure.
func TestTracedDistSearch(t *testing.T) {
	m, err := model.New(model.Config{Authority: guardian.AuthoritySmallShift, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	dist.RegisterModel("tta", tr.build)
	t.Cleanup(func() { dist.RegisterModel("tta", buildTTA) })
	dir, err := os.MkdirTemp(".", "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) }) // relative: Unix socket paths are short
	readyCalls := 0
	e := &env{workers: 2, dir: dir, tr: tr, ready: func() { readyCalls++ }}
	out, err := distSearch(e, m)
	if err != nil {
		t.Fatal(err)
	}
	if signature(out.results[0]) != signature(want) {
		t.Fatalf("dist result %+v, in-process %+v", out.results[0], want)
	}
	if readyCalls != 1 {
		t.Errorf("ready called %d times, want once", readyCalls)
	}
	a := analyze(tr.searches, out)
	if len(a.failures) != 0 {
		t.Fatalf("cross-checks failed: %v", a.failures)
	}
	for _, name := range []string{"mc.visited.peak_resident_B", "mc.visited.load_factor", "mc.claim.mean_probe"} {
		if _, ok := a.metrics[name]; ok {
			t.Errorf("dist reports %s, which its backend does not measure", name)
		}
	}
	for _, name := range []string{"dist.wire.frames", "dist.mesh.bytes", "dist.ctrl.bytes", "dist.worker.busy_max_s", "mc.alloc_B"} {
		if a.metrics[name] <= 0 {
			t.Errorf("%s = %v", name, a.metrics[name])
		}
	}
	workers := 0
	for _, w := range tr.searches[0].workers {
		if w.name != "coord" {
			workers++
		}
	}
	if workers != 2 {
		t.Errorf("%d dist workers traced, want 2", workers)
	}
}

func TestInterruptLevelInMiddleThird(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		if l := interruptLevel(seed); 3*l < r5Depth || 3*l > 2*r5Depth {
			t.Fatalf("seed %d: level %d outside the middle third of %d", seed, l, r5Depth)
		}
	}
}
