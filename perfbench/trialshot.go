package main

import (
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mc"
)

// hotBenches are trials_hot's kernels, in run order.
var hotBenches = []*bench.Benchmark{bench.KMeans(), bench.Median(), bench.Checksum()}

// hotGrids declares trials_hot: each kernel under model C at 0.7 V and
// sigma 10 mV across a band from just below to well above its point of
// first failure, with its own trial count so that no kernel is the
// whole measurement.
func hotGrids(sys *core.System, seed int64, sz sizes) []mc.Grid {
	var grids []mc.Grid
	for _, b := range hotBenches {
		grids = append(grids, mc.Grid{
			Spec: mc.Spec{
				System:  sys,
				Bench:   b,
				Model:   core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
				Trials:  sz.HotTrials[b.Name],
				Seed:    seed,
				Workers: 2,
			},
			Axes: mc.Axes{Freqs: sz.HotFreqs},
		})
	}
	return grids
}

// runTrialsHot measures the trial engine alone. Set-up resolves every
// model, golden trace and hazard table on one System with no store;
// the measured phase reruns the grids, which then do nothing but
// first-fault planning, forked faulting trials and quality extraction.
func runTrialsHot(cfg config, sz sizes) (*outcome, error) {
	o := newOutcome()

	seed := mcSeed(cfg.Seed) * 1000
	setup := func(tr *Tracer, root int) (*core.System, []mc.Grid, error) {
		sys := newSystem(tr, root, sz.DTACycles)
		grids := hotGrids(sys, seed, sz)
		return sys, grids, resolveStages(tr, root, sys, grids)
	}

	var setups []float64
	var sys *core.System
	var grids []mc.Grid
	reps := sz.SetupReps
	if cfg.Trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		sys, grids = nil, nil
		runtime.GC() // start each set-up on a collected heap
		start := time.Now()
		var err error
		if sys, grids, err = setup(nil, -1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", median(setups))

	// Each repetition draws its own trials (seed per repetition): a
	// kmeans trial that runs to the watchdog costs many times one that
	// does not, so one seed's draw would move wall_s by itself.
	var walls, cpus []float64
	var first []mc.CellResult
	resetPeakRSS()
	for r := 0; r < sz.reps(cfg.Seconds); r++ {
		rg := withSeed(grids, seed+int64(r))
		// Every repetition starts on a collected heap, so each meets the
		// same garbage-collection schedule.
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		cells, err := runGrids(nil, -1, sys, rg)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		o.attempted += len(cells)
		if first == nil {
			first = cells
			if cfg.Corrupt {
				corrupt(first)
			}
		}
		// One cell per kernel, a different one each repetition, evaluated
		// alone through mc.Run must equal the grid's.
		for gi, g := range rg {
			n := len(g.Axes.Freqs)
			fi := (n/2 + r) % n
			want := cells[gi*n+fi]
			pt, err := mc.Run(g.Spec, g.Axes.Freqs[fi])
			if err != nil {
				return nil, err
			}
			compareCells(o, "mc.Run of a sampled cell", []mc.CellResult{want}, []mc.CellResult{{Bench: want.Bench, Model: want.Model, Point: pt}})
		}
		if cfg.Trace {
			break
		}
	}
	o.set("peak_rss_mb", peakRSSMB())
	work := countedWork(sys, nil, first)
	o.repWalls = walls
	wall := median(walls)
	o.set("wall_s", wall)
	o.set("cpu_s", median(cpus))
	o.set("trials_per_s", float64(sumTrials(first))/wall)
	o.samples["wall_s"] = len(walls)
	o.samples["setup_s"] = len(setups)
	o.sizes["reps"] = len(walls)
	o.sizes["cells"] = len(first)
	o.sizes["trials"] = sumTrials(first)
	o.sizes["dta_cycles"] = sz.DTACycles
	for _, b := range hotBenches {
		o.sizes["trials_per_cell."+b.Name] = sz.HotTrials[b.Name]
	}

	if cfg.Trace {
		tr := NewTracer()
		root := tr.Begin("trials_hot", -1)
		tsys, tgrids, err := setup(tr, root)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		cells, err := runGrids(tr, root, tsys, tgrids)
		if err != nil {
			return nil, err
		}
		traced := time.Since(t0).Seconds()
		tr.End(root)
		o.checkSame(work, countedWork(tsys, nil, cells))
		compareCells(o, "traced hot run", first, cells)
		spans := tr.Spans()
		o.set("trace.coverage", Coverage(spans))
		o.set("trace.overhead", traced/walls[0])
		if err := layerMetrics(o, spans, tsys, tgrids, cells); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// withSeed returns copies of grids drawing their trials from seed.
func withSeed(grids []mc.Grid, seed int64) []mc.Grid {
	out := append([]mc.Grid(nil), grids...)
	for i := range out {
		out[i].Spec.Seed = seed
	}
	return out
}
