package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root lists
// the same names, units and directions (a self-test keeps them equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: allowed regression share
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"trials_per_s", "1/s", "higher", 0.25},
}

// perLayer comes from the traced run (and, for the service's client and
// server views, from the untraced run beside it). A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"core.new_s", "s", "lower", 0},
	{"dta.characterize_s", "s", "lower", 0},
	{"dta.characterizations", "count", "lower", 0},
	{"dta.loaded", "count", "higher", 0},
	{"dta.ns_per_cycle", "ns", "lower", 0},
	{"fi.model_build_s", "s", "lower", 0},
	{"fi.models_built", "count", "lower", 0},
	{"fi.ms_per_model", "ms", "lower", 0},
	{"core.golden_s", "s", "lower", 0},
	{"core.goldens_recorded", "count", "lower", 0},
	{"core.goldens_loaded", "count", "higher", 0},
	{"fi.hazard_s", "s", "lower", 0},
	{"fi.hazards_built", "count", "lower", 0},
	{"fi.hazards_loaded", "count", "higher", 0},
	{"fi.ns_per_hazard_query", "ns", "lower", 0},
	{"mc.trials_s", "s", "lower", 0},
	{"mc.trials_s.median", "s", "lower", 0},
	{"mc.trials_s.kmeans", "s", "lower", 0},
	{"mc.trials_s.checksum", "s", "lower", 0},
	{"mc.trials", "count", "higher", 0},
	{"mc.fault_frac", "fraction", "lower", 0},
	{"mc.ms_per_faulting_trial", "ms", "lower", 0},
	{"fi.plan_s", "s", "lower", 0},
	{"bench.quality_us.median", "us", "lower", 0},
	{"bench.quality_us.kmeans", "us", "lower", 0},
	{"bench.quality_us.checksum", "us", "lower", 0},
	{"artifact.hits", "count", "higher", 0},
	{"artifact.misses", "count", "lower", 0},
	{"artifact.puts", "count", "lower", 0},
	{"artifact.hit_frac", "fraction", "higher", 0},
	{"server.queue_ms.p50.warm", "ms", "lower", 0},
	{"server.queue_ms.p50.fresh", "ms", "lower", 0},
	{"server.run_ms.p50.warm", "ms", "lower", 0},
	{"server.run_ms.p50.fresh", "ms", "lower", 0},
	{"client.http_ms.p50.warm", "ms", "lower", 0},
	{"client.http_ms.p50.fresh", "ms", "lower", 0},
	{"client.job_ms.p50.warm", "ms", "lower", 0},
	{"client.job_ms.p90.warm", "ms", "lower", 0},
	{"client.job_ms.p50.fresh", "ms", "lower", 0},
	{"client.job_ms.p90.fresh", "ms", "lower", 0},
	{"client.jobs_per_s", "1/s", "higher", 0},
	{"server.dedup_frac", "fraction", "lower", 0},
	{"server.cached_cell_frac.warm", "fraction", "higher", 0},
	{"trace.coverage", "fraction", "higher", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// labels marks metrics that are not timed calls of the program's own
// run, so the text report can say how each was obtained.
var labels = map[string]string{
	"mc.fault_frac":             "computed: Σ trials·(1−Hazard.Survival) / Σ trials",
	"mc.ms_per_faulting_trial":  "derived: mc.trials_s / expected faulting trials",
	"fi.plan_s":                 "replicated: fi.FirstFaultBatch per cell, same hazard and trial count",
	"bench.quality_us.median":   "replicated: QualityAt extractor on the golden output",
	"bench.quality_us.kmeans":   "replicated: QualityAt extractor on the golden output",
	"bench.quality_us.checksum": "replicated: QualityAt extractor on the golden output",
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces: metric values by name, the
// operations attempted and failed (cells or jobs), the environment's
// workload sizes and percentile sample counts, and the messages of
// failed checks.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	sizes     map[string]int
	samples   map[string]int
	problems  []string
	// repWalls are the measured phase's repetition times, printed so a
	// reader can see the spread behind the median.
	repWalls []float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, sizes: map[string]int{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail counts n failed operations and records why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkSame fails the run when the counted work of a traced and an
// untraced run differ: the trace must not change what the program does.
func (o *outcome) checkSame(untraced, traced map[string]int64) {
	keys := make([]string, 0, len(untraced))
	for k := range untraced {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if untraced[k] != traced[k] {
			o.fail(1, "counted work differs under tracing: %s untraced=%d traced=%d", k, untraced[k], traced[k])
		}
	}
}

// metrics renders the requested table: exactly its names, in its units.
// A per-layer name the workload left unset reads 0 (layer not
// exercised); an unset end-to-end name is a bug in the workload.
func (o *outcome) metrics(defs []metricDef, zeroMissing bool) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !zeroMissing {
			return nil, fmt.Errorf("workload did not report %s", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
