package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fi"
	"repro/internal/mc"
	"repro/internal/report"
)

// Stage span names. They follow the engine's layers: DTA
// characterization, model-C op tables, golden traces, hazard tables,
// then the trial engine per kernel.
const (
	spanNew      = "core.new"
	spanDTA      = "dta.characterize"
	spanModel    = "fi.model_build"
	spanGolden   = "core.golden"
	spanHazard   = "fi.hazard"
	spanTrialsAt = "mc.trials." // + benchmark name
)

// inputSeed is the benchmark input seed every workload uses: inputs are
// the paper's fixed characteristic data sets; the workload seed drives
// the Monte-Carlo trials.
const inputSeed = mc.DefaultInputSeed

// mcSeed maps a workload seed onto a Monte-Carlo master seed. Seed 0 is
// avoided because the experiment runners read it as "default".
func mcSeed(seed int64) int64 { return seed + 1 }

// newSystem builds a fresh stack at the given DTA depth, inside a span.
func newSystem(tr *Tracer, parent, dtaCycles int) *core.System {
	var sys *core.System
	_ = tr.Do(spanNew, parent, func() error {
		cfg := core.DefaultConfig()
		cfg.DTA.Cycles = dtaCycles
		sys = core.New(cfg)
		return nil
	})
	return sys
}

// resolveStages calls every layer the grids need, in the engine's
// order, one span per call: a DTA prewarm per (profile, Vdd), then per
// cell its model, its benchmark's golden trace and its hazard table.
// After it, running the grids does trials and nothing else.
func resolveStages(tr *Tracer, parent int, sys *core.System, grids []mc.Grid) error {
	type pv struct {
		prof string
		vdd  float64
	}
	warmed := map[pv]bool{}
	for _, g := range grids {
		for _, c := range g.Cells() {
			k := pv{fmt.Sprint(c.Model.Profile), c.Model.Vdd}
			if warmed[k] {
				continue
			}
			warmed[k] = true
			prof, vdd := c.Model.Profile, c.Model.Vdd
			if err := tr.Do(spanDTA, parent, func() error { return sys.Char.Prewarm(prof, vdd) }); err != nil {
				return err
			}
		}
	}
	for _, g := range grids {
		for _, c := range g.Cells() {
			if err := tr.Do(spanModel, parent, func() error { _, err := sys.Model(c.Model); return err }); err != nil {
				return err
			}
			if err := tr.Do(spanGolden, parent, func() error { _, err := sys.Golden(c.Bench, inputSeed); return err }); err != nil {
				return err
			}
			if err := tr.Do(spanHazard, parent, func() error { _, err := sys.Hazard(c.Bench, inputSeed, c.Model); return err }); err != nil {
				return err
			}
		}
	}
	return nil
}

// runGrids runs each grid on sys, one span per grid named after its
// benchmark, and returns all cells in order.
func runGrids(tr *Tracer, parent int, sys *core.System, grids []mc.Grid) ([]mc.CellResult, error) {
	var all []mc.CellResult
	for _, g := range grids {
		g.Spec.System = sys
		var cells []mc.CellResult
		err := tr.Do(spanTrialsAt+g.Spec.Bench.Name, parent, func() error {
			var err error
			cells, err = g.Run()
			return err
		})
		if err != nil {
			return nil, err
		}
		all = append(all, cells...)
	}
	return all, nil
}

// countedWork is the work a run did, by counter: what the traced and
// untraced runs of one workload must agree on.
func countedWork(sys *core.System, st *artifact.Store, cells []mc.CellResult) map[string]int64 {
	w := map[string]int64{
		"characterizations": sys.Char.ComputedCount(),
		"models_built":      sys.ModelsBuiltCount(),
		"goldens_recorded":  sys.GoldenRecordedCount(),
		"hazards_built":     sys.HazardBuiltCount(),
		"trials":            int64(sumTrials(cells)),
	}
	if st != nil {
		s := st.Stats()
		w["artifact_hits"], w["artifact_puts"] = s.Hits, s.Puts
	}
	return w
}

func sumTrials(cells []mc.CellResult) int {
	n := 0
	for _, c := range cells {
		n += c.Point.Trials
	}
	return n
}

// cellsCSV renders cells as report.WriteCSV does, the byte form results
// are compared in.
func cellsCSV(cells []mc.CellResult) string {
	var b strings.Builder
	_ = report.WriteCSV(&b, &report.Document{Meta: report.Meta{Tool: "perfbench", Cells: len(cells)}, Series: report.FromCells(cells)})
	return b.String()
}

// pointCSV renders one cell's point, for per-cell comparison.
func pointCSV(c mc.CellResult) string { return cellsCSV([]mc.CellResult{c}) }

// compareCells counts the cells of got whose result differs from want.
func compareCells(o *outcome, what string, want, got []mc.CellResult) {
	if len(want) != len(got) {
		o.fail(max(len(want), len(got)), "%s: %d cells, want %d", what, len(got), len(want))
		return
	}
	bad := 0
	for i := range want {
		if pointCSV(want[i]) != pointCSV(got[i]) {
			bad++
		}
	}
	if bad > 0 {
		o.fail(bad, "%s: %d of %d cells differ", what, bad, len(want))
	}
}

// corrupt damages one cell, for the self-test that a wrong result is
// counted.
func corrupt(cells []mc.CellResult) {
	if len(cells) > 0 {
		cells[len(cells)/2].Point.CorrectPct += 1
	}
}

// layerMetrics fills the per-layer metrics of a traced grid run: stage
// self times from the spans, work counts from the system, the computed
// fault share, and the replicated planning and quality-extraction
// timings.
func layerMetrics(o *outcome, spans []Span, sys *core.System, grids []mc.Grid, cells []mc.CellResult) error {
	st := StageSeconds(spans)
	o.set("core.new_s", st[spanNew])
	o.set("dta.characterize_s", st[spanDTA])
	nChar := float64(sys.Char.ComputedCount())
	o.set("dta.characterizations", nChar)
	o.set("dta.loaded", float64(sys.Char.LoadedCount()))
	if nChar > 0 {
		o.set("dta.ns_per_cycle", st[spanDTA]*1e9/(nChar*float64(sys.Cfg.DTA.Cycles)))
	}
	o.set("fi.model_build_s", st[spanModel])
	nModels := float64(sys.ModelsBuiltCount())
	o.set("fi.models_built", nModels)
	if nModels > 0 {
		o.set("fi.ms_per_model", st[spanModel]*1e3/nModels)
	}
	o.set("core.golden_s", st[spanGolden])
	o.set("core.goldens_recorded", float64(sys.GoldenRecordedCount()))
	o.set("core.goldens_loaded", float64(sys.GoldenLoadedCount()))
	o.set("fi.hazard_s", st[spanHazard])
	o.set("fi.hazards_built", float64(sys.HazardBuiltCount()))
	o.set("fi.hazards_loaded", float64(sys.HazardLoadedCount()))

	var trialsS float64
	for name, s := range st {
		if b, ok := strings.CutPrefix(name, spanTrialsAt); ok {
			o.set("mc.trials_s."+b, s)
			trialsS += s
		}
	}
	o.set("mc.trials_s", trialsS)

	// Walk the cells once more against the (now cached) hazard tables:
	// the expected faulting share, the replicated first-fault planning
	// and the queries the hazard builds folded.
	var trials, faulting, queries float64
	var plan time.Duration
	tables := map[string]bool{}
	for i, c := range cells {
		b, err := bench.ByName(c.Bench)
		if err != nil {
			return err
		}
		hz, err := sys.Hazard(b, inputSeed, c.Model)
		if err != nil {
			return err
		}
		m, err := sys.Model(c.Model)
		if err != nil {
			return err
		}
		g, err := sys.Golden(b, inputSeed)
		if err != nil {
			return err
		}
		n := c.Point.Trials
		trials += float64(n)
		faulting += float64(n) * (1 - hz.Survival())
		if k := c.Bench + fmt.Sprintf("%+v", c.Model); !tables[k] {
			tables[k] = true
			queries += float64(len(g.Queries))
		}
		rngs := make([]*rand.Rand, n)
		for t := range rngs {
			rngs[t] = rand.New(rand.NewSource(int64(i)<<20 + int64(t)))
		}
		start := time.Now()
		_ = fi.FirstFaultBatch(m.(fi.HazardModel), hz, rngs, g.Queries)
		plan += time.Since(start)
	}
	o.set("mc.trials", trials)
	if trials > 0 {
		o.set("mc.fault_frac", faulting/trials)
	}
	if faulting > 0 {
		o.set("mc.ms_per_faulting_trial", trialsS*1e3/faulting)
	}
	o.set("fi.plan_s", plan.Seconds())
	if queries > 0 {
		// Every distinct table was built in this run (no store), so the
		// hazard spans folded exactly these queries.
		o.set("fi.ns_per_hazard_query", st[spanHazard]*1e9/queries)
	}
	return qualityMetrics(o, sys, grids)
}

// qualityMetrics times each grid benchmark's quality extractor on its
// golden output, replicated qualityReps times.
func qualityMetrics(o *outcome, sys *core.System, grids []mc.Grid) error {
	const qualityReps = 2000
	for _, g := range grids {
		b := g.Spec.Bench
		if _, done := o.values["bench.quality_us."+b.Name]; done {
			continue
		}
		gold, err := sys.Golden(b, inputSeed)
		if err != nil {
			return err
		}
		q := b.QualityAt(inputSeed)
		start := time.Now()
		for i := 0; i < qualityReps; i++ {
			_ = q(gold.Want, gold.Want)
		}
		o.set("bench.quality_us."+b.Name, time.Since(start).Seconds()*1e6/qualityReps)
	}
	return nil
}
