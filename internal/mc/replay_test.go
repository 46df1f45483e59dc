package mc

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fi"
)

// TestReplayMatchesFullGrid is the differential guarantee of the
// golden-trace replay scan (ModeScan — first-fault sampling, the
// default, is only statistically equivalent and has its own agreement
// tests): across every application benchmark, every fault model, three
// frequencies spanning the clean / transition / failing regions, and
// both fault semantics, the scanned points must be bit-identical to the
// full-execution reference (RunFull) for a fixed seed.
func TestReplayMatchesFullGrid(t *testing.T) {
	sta := system().STALimitMHz(0.7)
	freqs := []float64{700, 800, 870}
	models := []struct {
		name string
		spec core.ModelSpec
	}{
		{"A", core.ModelSpec{Kind: "A", ProbA: 2e-4}},
		{"B", core.ModelSpec{Kind: "B", Vdd: 0.7}},
		{"B+", core.ModelSpec{Kind: "B+", Vdd: 0.7, Sigma: 0.010}},
		{"C", core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010}},
	}
	sems := []fi.Semantics{fi.FlipBit, fi.StaleCapture}
	if sta < 700 || sta > 720 {
		t.Fatalf("STA limit %v outside the range the grid frequencies assume", sta)
	}
	for _, b := range bench.All() {
		for _, m := range models {
			for _, sem := range sems {
				ms := m.spec
				ms.Sem = sem
				spec := Spec{
					System: system(),
					Bench:  b,
					Model:  ms,
					Mode:   ModeScan,
					Trials: 4,
					Seed:   11,
				}
				name := b.Name + "/" + m.name + "/" + sem.String()
				replayed, err := Sweep(spec, freqs)
				if err != nil {
					t.Fatalf("%s: replay sweep: %v", name, err)
				}
				for i, f := range freqs {
					full, err := RunFull(spec, f)
					if err != nil {
						t.Fatalf("%s: full run at %v MHz: %v", name, f, err)
					}
					if replayed[i] != full {
						t.Errorf("%s at %v MHz differs:\nreplay %+v\nfull   %+v",
							name, f, replayed[i], full)
					}
				}
			}
		}
	}
}

// TestReplayMatchesFullMicro pins the per-trial-inputs escape hatch: for
// microkernels there is no shared golden run, the engine must fall back
// to full execution, and Run/RunFull are trivially identical.
func TestReplayMatchesFullMicro(t *testing.T) {
	spec := Spec{
		System: system(),
		Bench:  bench.MicroAdd32(),
		Model:  core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Trials: 4,
		Seed:   11,
	}
	for _, f := range []float64{700, 820} {
		a, err := Run(spec, f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunFull(spec, f)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("micro point at %v MHz differs:\nrun  %+v\nfull %+v", f, a, b)
		}
	}
}

// TestReplayAdaptiveMatchesFull checks the replay scan under adaptive
// trial allocation: batch growth decisions see the same per-trial
// results, so the adaptive trajectory and the final point must match the
// full path exactly.
func TestReplayAdaptiveMatchesFull(t *testing.T) {
	spec := Spec{
		System:    system(),
		Bench:     bench.Median(),
		Model:     core.ModelSpec{Kind: "C", Vdd: 0.7, Sigma: 0.010},
		Mode:      ModeScan,
		TrialsMin: 6,
		TrialsMax: 48,
		Seed:      3,
	}
	freqs := []float64{700, 840, 900}
	fast, err := Sweep(spec, freqs)
	if err != nil {
		t.Fatal(err)
	}
	spec.Mode = ModeFull
	full, err := Sweep(spec, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast[i] != full[i] {
			t.Errorf("adaptive point %d differs:\nreplay %+v\nfull   %+v", i, fast[i], full[i])
		}
	}
}

// TestReplayLowWatchdogFallsBack pins the guard rail: a watchdog budget
// below the golden cycle count cannot use the replay shortcut (fault-free
// trials must still watchdog), and both paths agree on the outcome.
func TestReplayLowWatchdogFallsBack(t *testing.T) {
	spec := Spec{
		System:         system(),
		Bench:          bench.Median(),
		Model:          core.ModelSpec{Kind: "none"},
		Trials:         3,
		Seed:           1,
		WatchdogFactor: 0.5,
	}
	fast, err := Run(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunFull(spec, 700)
	if err != nil {
		t.Fatal(err)
	}
	if fast != full {
		t.Errorf("low-watchdog point differs:\nreplay %+v\nfull   %+v", fast, full)
	}
	if fast.FinishedPct != 0 {
		t.Errorf("half-budget watchdog let %v%% of golden runs finish", fast.FinishedPct)
	}
}

// TestPoFFNonMonotone pins the paper's point-of-first-failure definition
// against non-monotone sweeps: the FIRST frequency below 100% correct
// wins even when later points recover (statistical flukes near the
// transition region can produce exactly that shape).
func TestPoFFNonMonotone(t *testing.T) {
	pts := []Point{
		{FreqMHz: 700, CorrectPct: 100},
		{FreqMHz: 750, CorrectPct: 99.9},
		{FreqMHz: 800, CorrectPct: 100},
		{FreqMHz: 850, CorrectPct: 0},
	}
	f, ok := PoFF(pts)
	if !ok || f != 750 {
		t.Errorf("PoFF(non-monotone) = %v, %v; want 750, true", f, ok)
	}
}
