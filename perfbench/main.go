// Command perfbench is the repository's benchmark: it runs one workload
// against the simulation stack's Go packages in a single process,
// checks every output, and prints one JSON result line.
//
//	perfbench --workload repro_cold|trials_hot|service_rw --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of an untraced
// run. With --trace 1 it holds the per-layer metrics: the workload runs
// once untraced and once with a span around every call into a layer,
// and the two runs must do identical counted work and give identical
// results. README.md explains the workloads and the metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/mc"
)

// config is one invocation's settings. Sizes come from the workload's
// size table; tests pass tiny ones.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// TmpDir holds the service workload's artifact stores.
	TmpDir string
	// Corrupt damages one result before it is checked, so tests can see
	// the checks count it.
	Corrupt bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, sizes) (*outcome, error){
	"repro_cold": runReproCold,
	"trials_hot": runTrialsHot,
	"service_rw": runServiceRW,
}

// sizes is the union of the workloads' size knobs.
type sizes struct {
	DTACycles int
	// RepSeconds is the nominal length of one measured repetition on a
	// 2-vCPU host: a run makes reps(seconds) repetitions, a number fixed
	// by --seconds alone so that every run does the same work.
	RepSeconds float64
	// SetupReps is how many set-ups trials_hot and service_rw time for
	// the median setup_s.
	SetupReps int
	// repro_cold: the experiments' scale factor.
	Scale float64
	// trials_hot: trials per cell by kernel, and the frequency band.
	HotTrials map[string]int
	HotFreqs  []float64
	// service_rw: warm specs, fresh jobs per repetition, each class's
	// job shape, and how many fresh results are checked in-process.
	WarmJobs, FreshJobs int
	Warm, Fresh         jobShape
	SampleFresh         int
}

// defaultSizes are the sizes the benchmark measures at.
func defaultSizes(workload string) sizes {
	switch workload {
	case "repro_cold":
		return sizes{DTACycles: 8192, RepSeconds: 10.5, Scale: 0.1}
	case "trials_hot":
		return sizes{
			DTACycles: 2048, RepSeconds: 2.7, SetupReps: 3,
			HotTrials: map[string]int{"kmeans": 8, "median": 300, "checksum": 220},
			HotFreqs:  mc.FreqRange(700, 1000, 20),
		}
	}
	return sizes{
		DTACycles: 1024, RepSeconds: 4.5, SetupReps: 3, WarmJobs: 30, FreshJobs: 60,
		// Warm jobs carry many cells, so reading them from the store sets
		// their latency. They are cheap micro-kernel cells under model B+
		// on sliding frequency windows, so populating 30 of them writes
		// under 200 files and holds no model-C op tables. Fresh jobs
		// carry fewer cells with more trials, so trials and cell writes
		// share their latency.
		Warm: jobShape{Bench: "micro_add_32bit", Model: "B+", Sigmas: []float64{0, 0.005, 0.010, 0.015},
			Freqs: mc.FreqRange(700, 700+2*(16+30-2), 2), Window: 16, Trials: 1},
		Fresh: jobShape{Bench: "median", Model: "C", Sigmas: []float64{0.010},
			Freqs: mc.FreqRange(700, 840, 20), Trials: 32},
		SampleFresh: 4,
	}
}

// reps is the number of measured repetitions for a measuring time: at
// least two, so that wall_s is a median.
func (sz sizes) reps(seconds float64) int {
	return max(2, int(math.Round(seconds/sz.RepSeconds)))
}

func main() {
	workload := flag.String("workload", "", "repro_cold, trials_hot or service_rw")
	seed := flag.Int64("seed", 1, "workload seed (>= 0); the same seed gives the same inputs")
	secs := flag.Float64("seconds", 25, "target length of the measured phase")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *secs, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload string, seed int64, secs float64, trace int) error {
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seed < 0 || secs <= 0 || (trace != 0 && trace != 1) {
		return errors.New("need --seed >= 0, --seconds > 0 and --trace 0 or 1")
	}
	tmp := filepath.Join(".bench_build", fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := config{Seed: seed, Seconds: secs, Trace: trace == 1, TmpDir: tmp}
	return emit(w, workload, cfg, runner, defaultSizes(workload))
}

// emit runs one workload and prints the environment, every metric by
// name and unit, any failed check, and last the JSON result line.
func emit(w io.Writer, workload string, cfg config, runner func(config, sizes) (*outcome, error), sz sizes) error {
	o, err := runner(cfg, sz)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	defs, table := endToEnd, "end_to_end"
	if cfg.Trace {
		defs, table = perLayer, "per_layer"
	}
	ms, err := o.metrics(defs, cfg.Trace)
	if err != nil {
		return err
	}
	env, err := json.Marshal(environment(workload, cfg, o))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env %s\n", env)
	for _, d := range defs {
		line := fmt.Sprintf("# %s %s %.6g %s", table, d.Name, ms[d.Name].Value, d.Unit)
		if l, ok := labels[d.Name]; ok {
			line += " (" + l + ")"
		}
		fmt.Fprintln(w, line)
	}
	if len(o.repWalls) > 0 {
		fmt.Fprintf(w, "# repetition wall_s %.4g\n", o.repWalls)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "# check failed:", p)
	}
	attempted := max(o.attempted, 1)
	fmt.Fprintf(w, "# fail_frac %.6g (%d of %d)\n", float64(o.failed)/float64(attempted), o.failed, attempted)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{o.failed == 0 && len(o.problems) == 0, attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// environment is the block every result states: what ran, where, and
// on how much data.
func environment(workload string, cfg config, o *outcome) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          cfg.Seed,
		"trace":         cfg.Trace,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu":           cpuModel(),
		"sizes":         o.sizes,
		"samples":       o.samples,
	}
}

// commit is the revision run.sh found in the checkout, if any.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
