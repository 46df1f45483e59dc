package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mc"
)

// fig5Grids declares the paper's Fig. 5 grid exactly as
// experiments.Fig5 evaluates it: the median kernel under model C at
// Vdd {0.7, 0.8} V × sigma {0, 10, 25} mV, each series over its own
// frequency band around that voltage's STA limit, with trials and
// frequency step shrunk by scale.
func fig5Grids(sys *core.System, seed int64, scale float64) []mc.Grid {
	trials := max(int(200*scale), 4)
	step := 10.0
	if scale < 1 {
		step *= math.Sqrt(1 / scale)
	}
	var grids []mc.Grid
	for _, vdd := range []float64{0.7, 0.8} {
		for _, sigma := range []float64{0, 0.010, 0.025} {
			sta := sys.STALimitMHz(vdd)
			lo := math.Max(620, sta*0.92-40*1000*sigma)
			hi := math.Min(sta*1.45, sys.NonALUSafeMHz(vdd)-1)
			grids = append(grids, mc.Grid{
				Spec: mc.Spec{
					System:  sys,
					Bench:   bench.Median(),
					Model:   core.ModelSpec{Kind: "C", Vdd: vdd, Sigma: sigma},
					Trials:  trials,
					Seed:    seed,
					Workers: 2,
				},
				Axes: mc.Axes{Freqs: mc.FreqRange(lo, hi, step)},
			})
		}
	}
	return grids
}

// runReproCold regenerates Fig. 5 cold: every repetition starts from a
// fresh core.System with no artifact store, so it pays DTA
// characterization, model construction, golden recording and hazard
// builds before its trials; wall_s and cpu_s are the repetitions'
// medians.
func runReproCold(cfg config, sz sizes) (*outcome, error) {
	o := newOutcome()
	seed := mcSeed(cfg.Seed)

	// Set-up is building the stack, which every cold run pays first. It
	// takes about a millisecond, so it is timed on its own many times
	// and reported as a median. Each sample starts on a collected heap,
	// as a cold process does; otherwise samples that meet a collection
	// in progress form a second, slower mode.
	var setups []time.Duration
	for i := 0; i < 101; i++ {
		runtime.GC()
		start := time.Now()
		newSystem(nil, -1, sz.DTACycles)
		setups = append(setups, time.Since(start))
	}
	o.set("setup_s", median(seconds(setups)))

	coldRun := func(tr *Tracer) (*core.System, []mc.CellResult, error) {
		root := tr.Begin("repro_cold", -1)
		defer tr.End(root)
		sys := newSystem(tr, root, sz.DTACycles)
		grids := fig5Grids(sys, seed, sz.Scale)
		if tr != nil {
			if err := resolveStages(tr, root, sys, grids); err != nil {
				return nil, nil, err
			}
		}
		cells, err := runGrids(tr, root, sys, grids)
		return sys, cells, err
	}

	var walls, cpus []float64
	var first []mc.CellResult
	var last *core.System
	var work map[string]int64
	resetPeakRSS()
	for len(walls) < sz.reps(cfg.Seconds) {
		// Only one cold stack is alive at a time, so the peak resident
		// set is that of a single cold run.
		last = nil
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		sys, cells, err := coldRun(nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		o.attempted += len(cells)
		last = sys
		if first == nil {
			first, work = cells, countedWork(sys, nil, cells)
			if cfg.Corrupt {
				corrupt(first)
			}
		} else {
			compareCells(o, "repeated cold run", first, cells)
		}
		if cfg.Trace {
			break
		}
	}
	o.set("peak_rss_mb", peakRSSMB())
	o.sizes["reps"] = len(walls)
	o.sizes["cells"] = len(first)
	o.sizes["trials"] = sumTrials(first)
	o.sizes["dta_cycles"] = sz.DTACycles
	o.samples["wall_s"] = len(walls)
	o.samples["setup_s"] = len(setups)
	o.repWalls = walls
	wall := median(walls)
	o.set("wall_s", wall)
	o.set("cpu_s", median(cpus))
	o.set("trials_per_s", float64(sumTrials(first))/wall)

	// The same figure through the experiment runner, on the warm stack
	// of a cold run (only its trials rerun): every Point must match.
	series, err := experiments.Fig5(experiments.Options{System: last, Seed: seed, Scale: sz.Scale})
	if err != nil {
		return nil, fmt.Errorf("reference Fig5: %w", err)
	}
	var ref []mc.CellResult
	for _, s := range series {
		for _, p := range s.Points {
			ref = append(ref, mc.CellResult{Point: p})
		}
	}
	stripped := make([]mc.CellResult, len(first))
	for i, c := range first {
		stripped[i] = mc.CellResult{Point: c.Point}
	}
	compareCells(o, "experiments.Fig5", ref, stripped)

	if cfg.Trace {
		tr := NewTracer()
		t0 := time.Now()
		sys, cells, err := coldRun(tr)
		if err != nil {
			return nil, err
		}
		traced := time.Since(t0).Seconds()
		o.checkSame(work, countedWork(sys, nil, cells))
		compareCells(o, "traced cold run", first, cells)
		spans := tr.Spans()
		o.set("trace.coverage", Coverage(spans))
		o.set("trace.overhead", traced/walls[0])
		if err := layerMetrics(o, spans, sys, fig5Grids(sys, seed, sz.Scale), cells); err != nil {
			return nil, err
		}
	}
	return o, nil
}
