package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
)

// tinySizes shrink every workload to a few seconds.
func tinySizes(workload string) sizes {
	switch workload {
	case "repro_cold":
		return sizes{DTACycles: 128, RepSeconds: 1, Scale: 0.02}
	case "trials_hot":
		return sizes{
			DTACycles: 128, RepSeconds: 1, SetupReps: 2,
			HotTrials: map[string]int{"kmeans": 1, "median": 4, "checksum": 4},
			HotFreqs:  []float64{700, 900},
		}
	}
	return sizes{
		DTACycles: 128, RepSeconds: 1, SetupReps: 2, WarmJobs: 3, FreshJobs: 3,
		Warm: jobShape{Bench: "micro_add_32bit", Model: "B+", Sigmas: []float64{0, 0.010},
			Freqs: mc.FreqRange(700, 708, 2), Window: 3, Trials: 1},
		Fresh:       jobShape{Bench: "median", Model: "C", Sigmas: []float64{0.010}, Freqs: mc.FreqRange(700, 720, 20), Trials: 2},
		SampleFresh: 2,
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// runTiny runs one workload at tiny sizes and decodes its last line.
func runTiny(t *testing.T, workload string, trace, corrupt bool) (result, string) {
	t.Helper()
	cfg := config{Seed: 3, Seconds: 2, Trace: trace, TmpDir: t.TempDir(), Corrupt: corrupt}
	var out bytes.Buffer
	if err := emit(&out, workload, cfg, workloads[workload], tinySizes(workload)); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return r, out.String()
}

// TestSmoke runs every workload untraced and traced at tiny sizes: every
// named metric prints with its unit, every check passes, and the
// environment block is there.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"repro_cold", "trials_hot", "service_rw"} {
		for _, trace := range []bool{false, true} {
			r, out := runTiny(t, w, trace, false)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w, trace, r.Correct, r.Failed, r.Attempted, out)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", w, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
			if !strings.Contains(out, `# env {"commit":`) || !strings.Contains(out, `"samples":`) {
				t.Errorf("%s trace=%v: no environment block\n%s", w, trace, out)
			}
			if trace && r.Metrics["trace.coverage"].Value < 0.95 && w != "service_rw" {
				t.Errorf("%s: trace.coverage %v < 0.95", w, r.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestCorruptResultFails damages one result per workload: the checks
// must count it, so fail_frac > 0 and correct is false.
func TestCorruptResultFails(t *testing.T) {
	for _, w := range []string{"repro_cold", "trials_hot", "service_rw"} {
		r, out := runTiny(t, w, false, true)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: corrupted result passed: correct=%v failed=%d\n%s", w, r.Correct, r.Failed, out)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 50 * ms},
		{Name: "b", Parent: 1, Start: 20 * ms, End: 30 * ms},
		{Name: "b", Parent: 1, Start: 25 * ms, End: 40 * ms}, // overlaps its sibling
		{Name: "c", Parent: 0, Start: 60 * ms, End: 90 * ms},
		{Name: "d", Parent: 4, Start: 80 * ms, End: 95 * ms}, // runs past its parent
	}
	want := []time.Duration{30 * ms, 20 * ms, 10 * ms, 15 * ms, 20 * ms, 15 * ms}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	st := StageSeconds(spans)
	if math.Abs(st["b"]-0.025) > 1e-12 || math.Abs(st["a"]-0.020) > 1e-12 {
		t.Errorf("stage seconds = %v", st)
	}
	// Non-root self time: 20+10+15+20+15 = 80 ms of a 100 ms root.
	if c := Coverage(spans); math.Abs(c-0.8) > 1e-12 {
		t.Errorf("coverage = %v, want 0.8", c)
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", -1); id != -1 || nilTracer.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestBenchmarkJSON keeps the metric tables and the repository's
// BENCHMARK.json in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
