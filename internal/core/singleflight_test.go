package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dta"
	"repro/internal/fi"
	"repro/internal/isa"
)

// freshSystem builds a private System so the build counters start at
// zero (the package-level system() is shared across tests and its
// counters accumulate).
func freshSystem() *System {
	cfg := DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 512, Seed: 5}
	return New(cfg)
}

// TestModelSingleflight pins the dedup contract of the model cache: N
// concurrent requests for one spec share exactly one build (the old
// cache would run N builds and discard N-1), and the counter surfaces
// in CacheSummary.
func TestModelSingleflight(t *testing.T) {
	s := freshSystem()
	spec := ModelSpec{Kind: "C", Vdd: 0.7, FreqMHz: 800, Sigma: 0.01}
	const n = 16
	models := make([]fi.Model, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Model(spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if models[i] != models[0] {
			t.Fatalf("goroutine %d observed a different instance", i)
		}
	}
	if got := s.ModelsBuiltCount(); got != 1 {
		t.Errorf("%d concurrent requests built %d models, want 1", n, got)
	}
	if sum := s.CacheSummary(); !strings.Contains(sum, "models: 1 built") {
		t.Errorf("CacheSummary missing the model counter: %q", sum)
	}
}

// TestModelSingleflightError pins the error side of the contract:
// construction is deterministic for a fixed config, so a failed spec
// caches its error and every concurrent and later caller shares it
// without counting a build.
func TestModelSingleflightError(t *testing.T) {
	s := freshSystem()
	bad := ModelSpec{Kind: "C", Vdd: 0.2, FreqMHz: 800} // sub-threshold supply
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Model(bad)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] == nil {
			t.Fatalf("goroutine %d: sub-threshold spec accepted", i)
		}
		if errs[i] != errs[0] {
			t.Errorf("goroutine %d observed a different error instance", i)
		}
	}
	if _, err := s.Model(bad); err == nil {
		t.Error("retry after cached failure accepted")
	}
	if got := s.ModelsBuiltCount(); got != 0 {
		t.Errorf("failed spec counted %d builds", got)
	}
}

// TestGoldenSingleflight: N concurrent Golden calls for one key record
// exactly one execution.
func TestGoldenSingleflight(t *testing.T) {
	s := freshSystem()
	const n = 16
	goldens := make([]*Golden, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := s.Golden(bench.Median(), 42)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			goldens[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if goldens[i] != goldens[0] {
			t.Fatalf("goroutine %d observed a different golden instance", i)
		}
	}
	if got := s.GoldenRecordedCount(); got != 1 {
		t.Errorf("%d concurrent requests recorded %d goldens, want 1", n, got)
	}
}

// TestHazardSingleflight: N concurrent Hazard calls for one key build
// exactly one table — and, through the stacked caches, one model and
// one golden recording.
func TestHazardSingleflight(t *testing.T) {
	s := freshSystem()
	spec := ModelSpec{Kind: "B+", Vdd: 0.7, FreqMHz: 720, Sigma: 0.01}
	const n = 16
	tables := make([]*fi.Hazard, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := s.Hazard(bench.Median(), 42, spec)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			tables[i] = h
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("goroutine %d observed a different hazard table", i)
		}
	}
	if got := s.HazardBuiltCount(); got != 1 {
		t.Errorf("%d concurrent requests built %d hazard tables, want 1", n, got)
	}
	if got := s.ModelsBuiltCount(); got != 1 {
		t.Errorf("hazard resolution built %d models, want 1", got)
	}
	if got := s.GoldenRecordedCount(); got != 1 {
		t.Errorf("hazard resolution recorded %d goldens, want 1", got)
	}
}

// blockingBench returns a copy of median whose Build parks on gate
// after signalling entered, so a test can hold one cache key's build
// open while probing that other keys still make progress.
func blockingBench(name string, entered chan<- struct{}, gate <-chan struct{}) *bench.Benchmark {
	b := *bench.Median()
	orig := b.Build
	b.Name = name
	b.Build = func(seed int64) (string, []uint32, error) {
		entered <- struct{}{}
		<-gate
		return orig(seed)
	}
	return &b
}

// TestSingleflightNoCoarseLock pins that distinct keys build in
// parallel: while one benchmark's golden recording is deliberately
// parked inside its singleflight slot, a different benchmark must
// resolve end to end (golden, model, hazard). A coarse cache-wide lock
// would deadlock this test instead of merely failing it, so the probe
// runs under a timeout.
func TestSingleflightNoCoarseLock(t *testing.T) {
	s := freshSystem()
	entered := make(chan struct{})
	gate := make(chan struct{})
	blocked := blockingBench("median-blocking", entered, gate)

	done := make(chan error, 1)
	go func() {
		_, err := s.Golden(blocked, 42)
		done <- err
	}()
	<-entered // the blocked build is now inside its once

	probe := make(chan error, 1)
	go func() {
		// Full resolution of a different benchmark: golden + model +
		// hazard, each a distinct key from the parked one.
		_, err := s.Hazard(bench.KMeans(), 42, ModelSpec{Kind: "B+", Vdd: 0.7, FreqMHz: 720, Sigma: 0.01})
		probe <- err
	}()
	select {
	case err := <-probe:
		if err != nil {
			t.Fatalf("probe resolution failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distinct-key resolution stalled behind a parked build: caches serialize on a coarse lock")
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("parked golden recording failed after release: %v", err)
	}
	if got := s.GoldenRecordedCount(); got != 2 {
		t.Errorf("recorded %d goldens, want 2", got)
	}
}

// TestModelCSharesViolationGrids pins how model C shares state through
// the characterizer: concurrent cold builds of a voltage's models
// characterize each key exactly once, every model reads the one
// violation grid of each characterization, and the per-model marginal
// injection probabilities are bit-equal to those of models built alone
// on a fresh System, so no model's hazard state leaks into another's.
func TestModelCSharesViolationGrids(t *testing.T) {
	const vdd = 0.7
	cfg := DefaultConfig()
	cfg.DTA = dta.Config{Cycles: 256, Seed: 5}
	s := New(cfg)
	var specs []ModelSpec
	for _, f := range []float64{700, 800, 900} {
		for _, sigma := range []float64{0, 0.010} {
			for _, smp := range []fi.Sampling{fi.Independent, fi.Joint} {
				specs = append(specs, ModelSpec{Kind: "C", Vdd: vdd, FreqMHz: f, Sigma: sigma, Sampling: smp})
			}
		}
	}
	var aluOps []isa.Op
	keys := map[dta.Key]bool{}
	for _, op := range isa.AllOps() {
		if isa.IsALU(op) {
			aluOps = append(aluOps, op)
			keys[dta.KeyFor(op, nil)] = true
		}
	}

	// Race every spec from several goroutines at once on the cold
	// System, each querying its model's marginals as soon as it lands.
	const perSpec = 3
	got := make([]fi.Model, len(specs)*perSpec)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Model(specs[i/perSpec])
			if err != nil {
				t.Error(err)
				return
			}
			for _, op := range aluOps {
				m.(*fi.ModelC).MarginalProb(op)
			}
			got[i] = m
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := s.Char.ComputedCount(); n != int64(len(keys)) {
		t.Errorf("concurrent cold builds ran %d characterizations, want %d (one per key)", n, len(keys))
	}

	grids := map[dta.Key]map[*dta.ViolationGrid]bool{}
	for _, m := range got {
		mc := m.(*fi.ModelC)
		for _, op := range aluOps {
			k := dta.KeyFor(op, nil)
			if grids[k] == nil {
				grids[k] = map[*dta.ViolationGrid]bool{}
			}
			grids[k][mc.Grid(op)] = true
		}
	}
	for k, set := range grids {
		ch, err := s.Char.At(k, vdd)
		if err != nil {
			t.Fatal(err)
		}
		if len(set) != 1 || !set[ch.Grid()] {
			t.Errorf("key %+v: models read %d distinct grids, want the characterization's own", k, len(set))
		}
	}

	for i, spec := range specs {
		shared := got[i*perSpec].(*fi.ModelC)
		alone, err := New(cfg).NewModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range aluOps {
			a, b := shared.MarginalProb(op), alone.(*fi.ModelC).MarginalProb(op)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%+v %v: shared MarginalProb %v, fresh-System model %v", spec, op, a, b)
			}
		}
	}
}
