package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/report"
	"repro/internal/server"
)

// clients is the number of closed-loop service clients: fisimd callers
// submit and wait, and the host has two CPUs.
const clients = 2

// jobShape is the grid of one kind of service job: one kernel under
// one model kind at 0.7 V over Sigmas × frequencies, Trials per cell.
type jobShape struct {
	Bench, Model string
	Sigmas       []float64
	// Freqs is the frequency pool. With Window > 0 a job covers Window
	// consecutive frequencies of it; otherwise all of them.
	Freqs  []float64
	Window int
	Trials int
}

// cells is the number of cells one job of this shape covers.
func (sh jobShape) cells() int {
	if sh.Window > 0 {
		return len(sh.Sigmas) * sh.Window
	}
	return len(sh.Sigmas) * len(sh.Freqs)
}

// specs builds n distinct job specs of this shape. With a Window, spec
// i covers Freqs[i:i+Window] at seed seed0, so neighbouring specs share
// most of their cells and populating them writes few files; without
// one, spec i covers every frequency at seed seed0+i.
func (sh jobShape) specs(n int, seed0 int64) []server.JobSpec {
	out := make([]server.JobSpec, n)
	for i := range out {
		freqs, seed := sh.Freqs, seed0+int64(i)
		if sh.Window > 0 {
			freqs, seed = sh.Freqs[i:i+sh.Window], seed0
		}
		out[i] = server.JobSpec{
			Benches: []string{sh.Bench},
			Models:  []string{sh.Model},
			Vdds:    []float64{0.7},
			Sigmas:  sh.Sigmas,
			Freqs:   freqs,
			Trials:  sh.Trials,
			Seed:    seed,
		}
	}
	return out
}

// service is one fisimd instance in this process: a System over an
// artifact store, a Manager, and its HTTP handler on a loopback port.
type service struct {
	sys   *core.System
	store *artifact.Store
	mgr   *server.Manager
	srv   *http.Server
	base  string
	done  chan error
}

// startService opens the store in dir and serves a fresh System and
// Manager over it.
func startService(dir string, dtaCycles int) (*service, error) {
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	sys := newSystem(nil, -1, dtaCycles)
	sys.AttachStore(st)
	mgr := server.NewManager(server.Options{
		System: sys, Store: st, Workers: 2,
		// Retain more finished jobs than there are clients, so a job is
		// never evicted between its client's wait and its result fetch.
		KeepJobs: 4 * clients,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{sys: sys, store: st, mgr: mgr, srv: &http.Server{Handler: server.Handler(mgr)},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the manager, closes the listener and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Shutdown(ctx)
	if e := s.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.done; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	return err
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	latency time.Duration // submit to last result byte
	status  client.Status
	result  []byte
	err     error
}

// drive runs specs through the service with the closed-loop clients,
// each taking the next unsubmitted spec when its previous job's result
// has arrived. Each client has its own connection. With a tracer, each
// client is a root span and each job and HTTP call a span under it.
func drive(base string, specs []server.JobSpec, tr *Tracer, class string) []jobRecord {
	recs := make([]jobRecord, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			cl := client.New(client.Config{Base: base, HTTP: &http.Client{Transport: transport}, MaxAttempts: 1})
			lane := tr.Begin("client.lane", -1)
			defer tr.End(lane)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				job := tr.Begin("job."+class, lane)
				recs[i] = runJob(cl, specs[i], tr, job)
				tr.End(job)
			}
		}()
	}
	wg.Wait()
	return recs
}

// runJob submits one spec, waits for it and fetches its JSON result.
func runJob(cl *client.Client, spec server.JobSpec, tr *Tracer, parent int) jobRecord {
	ctx := context.Background()
	var r jobRecord
	start := time.Now()
	var sub client.SubmitResponse
	r.err = tr.Do("client.submit", parent, func() (err error) { sub, err = cl.Submit(ctx, spec); return err })
	if r.err == nil {
		r.err = tr.Do("client.wait", parent, func() (err error) { r.status, err = cl.Wait(ctx, sub.ID); return err })
	}
	if r.err == nil && r.status.State != "done" {
		r.err = fmt.Errorf("job %s ended %s: %s", sub.ID, r.status.State, r.status.Error)
	}
	if r.err == nil {
		var buf bytes.Buffer
		r.err = tr.Do("client.result", parent, func() error { return cl.Result(ctx, sub.ID, "json", &buf) })
		r.result = buf.Bytes()
	}
	r.latency = time.Since(start)
	return r
}

// populate fills a new store in dir with the warm specs' cells through
// a first service instance and returns each spec's result bytes.
func populate(dir string, specs []server.JobSpec, sz sizes) ([][]byte, error) {
	s, err := startService(dir, sz.DTACycles)
	if err != nil {
		return nil, err
	}
	recs := drive(s.base, specs, nil, "populate")
	if err := s.stop(); err != nil {
		return nil, err
	}
	out := make([][]byte, len(recs))
	for i, r := range recs {
		if r.err != nil {
			return nil, fmt.Errorf("populate job %d: %w", i, r.err)
		}
		out[i] = r.result
	}
	return out, nil
}

// serviceRun is the measured phase: a restarted service over a
// populated store, then repetitions of the warm class followed by a
// fresh class of new specs.
type serviceRun struct {
	walls, cpus []float64 // per repetition
	rss         float64
	warm, fresh [][]jobRecord // per repetition
	// work is the counted work after the first repetition: what a
	// traced single repetition must match.
	work       map[string]int64
	store      artifact.Stats
	sys        *core.System
	mgrStats   server.Stats
	freshCells []mc.CellResult // the first repetition's computed cells
	spans      []Span
}

// measureService restarts a service over dir and drives the classes.
// Each repetition resubmits every warm spec (evicted from the job table
// since its last run, so its cells are read from the store again) and
// then submits freshFor(rep), new specs whose cells are computed.
func measureService(dir string, warm []server.JobSpec, freshFor func(int) []server.JobSpec, reps int, sz sizes, tr *Tracer) (*serviceRun, error) {
	s, err := startService(dir, sz.DTACycles)
	if err != nil {
		return nil, err
	}
	r := &serviceRun{sys: s.sys}
	resetPeakRSS()
	for len(r.walls) < reps {
		runtime.GC() // every repetition meets the same collection schedule
		t0, c0 := time.Now(), cpuTime()
		r.warm = append(r.warm, drive(s.base, warm, tr, "warm"))
		r.fresh = append(r.fresh, drive(s.base, freshFor(len(r.walls)), tr, "fresh"))
		r.walls = append(r.walls, time.Since(t0).Seconds())
		r.cpus = append(r.cpus, (cpuTime() - c0).Seconds())
		if r.work == nil {
			r.freshCells = resultCells(r.fresh[0])
			r.work = countedWork(s.sys, s.store, r.freshCells)
			r.work["characterizations_loaded"] = s.sys.Char.LoadedCount()
			r.work["goldens_loaded"] = s.sys.GoldenLoadedCount()
			r.work["hazards_loaded"] = s.sys.HazardLoadedCount()
		}
	}
	r.rss = peakRSSMB()
	r.store, r.mgrStats = s.store.Stats(), s.mgr.Stats()
	r.spans = tr.Spans()
	return r, s.stop()
}

// resultCells decodes the points of every successful job's result.
func resultCells(recs []jobRecord) []mc.CellResult {
	var cells []mc.CellResult
	for _, rec := range recs {
		var doc report.Document
		if rec.err != nil || json.Unmarshal(rec.result, &doc) != nil {
			continue
		}
		for _, ser := range doc.Series {
			for _, p := range ser.Points {
				cells = append(cells, mc.CellResult{Point: p})
			}
		}
	}
	return cells
}

// runServiceRW measures fisimd in-process through its HTTP API. Set-up
// populates a store with the warm specs and restarts the service over
// it; the measured phase resubmits every warm spec (all cells read from
// the store), then submits fresh new-seed specs (trials run, cells
// written). The classes run one after the other so that neither waits
// behind the other's jobs.
func runServiceRW(cfg config, sz sizes) (*outcome, error) {
	o := newOutcome()
	base := mcSeed(cfg.Seed) * 1_000_000
	// The populated specs: the warm ones, and one of the fresh shape
	// whose DTA characterizations, golden trace and hazard tables the
	// restarted service then loads from the store for its fresh jobs.
	warm := append(sz.Warm.specs(sz.WarmJobs, base), sz.Fresh.specs(1, base-1)...)
	freshFor := func(rep int) []server.JobSpec {
		return sz.Fresh.specs(sz.FreshJobs, base+1+int64(rep*sz.FreshJobs))
	}

	// Each set-up populates its own store. The untraced run measures
	// the last; with tracing, the traced repetition runs on the one
	// before it, which holds the same cells.
	reps := max(sz.SetupReps, 1)
	if cfg.Trace {
		reps = max(reps, 2)
	}
	var setups []float64
	var dirs []string
	var want [][]byte
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.TmpDir, fmt.Sprintf("store-%d", i))
		runtime.GC() // start each set-up on a collected heap
		start := time.Now()
		res, err := populate(dir, warm, sz)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		dirs = append(dirs, dir)
		if want == nil {
			want = res
			continue
		}
		for j := range res {
			if !bytes.Equal(res[j], want[j]) {
				o.fail(1, "populate %d: result of warm spec %d differs from the first populate", i, j)
			}
		}
	}
	o.set("setup_s", median(setups))
	if cfg.Corrupt {
		i := len(want) / 2
		want[i] = append([]byte(nil), want[i]...)
		want[i][len(want[i])/2] ^= 1
	}

	run, err := measureService(dirs[len(dirs)-1], warm, freshFor, sz.reps(cfg.Seconds), sz, nil)
	if err != nil {
		return nil, err
	}
	checkService(o, run, want, freshFor(0), sz)
	o.repWalls = run.walls
	wall := median(run.walls)
	o.set("wall_s", wall)
	o.set("cpu_s", median(run.cpus))
	o.set("peak_rss_mb", run.rss)
	o.set("trials_per_s", float64(sumTrials(run.freshCells))/wall)
	o.sizes["reps"] = len(run.walls)
	o.sizes["jobs.warm_per_rep"] = len(warm)
	o.sizes["jobs.fresh_per_rep"] = sz.FreshJobs
	o.sizes["cells_per_job.warm"] = sz.Warm.cells()
	o.sizes["cells_per_job.fresh"] = sz.Fresh.cells()
	o.sizes["trials_per_cell.warm"] = sz.Warm.Trials
	o.sizes["trials_per_cell.fresh"] = sz.Fresh.Trials
	o.sizes["clients"] = clients
	o.sizes["dta_cycles"] = sz.DTACycles
	o.samples["setup_s"] = len(setups)
	o.samples["wall_s"] = len(run.walls)

	if cfg.Trace {
		serviceLayers(o, run)
		traced, err := measureService(dirs[len(dirs)-2], warm, freshFor, 1, sz, NewTracer())
		if err != nil {
			return nil, err
		}
		o.checkSame(run.work, traced.work)
		for i, r := range traced.warm[0] {
			if !bytes.Equal(r.result, run.warm[0][i].result) {
				o.fail(1, "traced run: warm job %d result differs", i)
			}
		}
		for i, r := range traced.fresh[0] {
			if !bytes.Equal(r.result, run.fresh[0][i].result) {
				o.fail(1, "traced run: fresh job %d result differs", i)
			}
		}
		o.set("trace.coverage", Coverage(traced.spans))
		o.set("trace.overhead", traced.walls[0]/run.walls[0])
	}
	return o, nil
}

// checkService counts failed jobs: errors and refusals, warm results
// that are not byte-identical to what populated them, and sampled fresh
// results of the first repetition that differ from an in-process grid
// of the same spec.
func checkService(o *outcome, run *serviceRun, want [][]byte, fresh []server.JobSpec, sz sizes) {
	for rep := range run.walls {
		o.attempted += len(run.warm[rep]) + len(run.fresh[rep])
		for i, r := range run.warm[rep] {
			switch {
			case r.err != nil:
				o.fail(1, "warm job %d: %v", i, r.err)
			case !bytes.Equal(r.result, want[i]):
				o.fail(1, "warm job %d: result differs from the populated one", i)
			}
		}
		for i, r := range run.fresh[rep] {
			if r.err != nil {
				o.fail(1, "fresh job %d: %v", i, r.err)
			}
		}
	}
	n := max(sz.SampleFresh, 1)
	for k := 0; k < n; k++ {
		i := k * (len(fresh) - 1) / max(n-1, 1)
		if run.fresh[0][i].err != nil {
			continue
		}
		if err := checkFresh(run.sys, fresh[i], run.fresh[0][i].result); err != nil {
			o.fail(1, "fresh job %d: %v", i, err)
		}
	}
}

// checkFresh compares a fresh job's result with the same spec run as an
// in-process mc.Grid, declared here rather than lowered by the server.
func checkFresh(sys *core.System, spec server.JobSpec, result []byte) error {
	var doc report.Document
	if err := json.Unmarshal(result, &doc); err != nil {
		return err
	}
	b, err := bench.ByName(spec.Benches[0])
	if err != nil {
		return err
	}
	g := mc.Grid{
		Spec: mc.Spec{
			System: sys, Bench: b,
			Model:  core.ModelSpec{Kind: spec.Models[0], Vdd: spec.Vdds[0]},
			Trials: spec.Trials, Seed: spec.Seed, Workers: 2,
		},
		Axes: mc.Axes{Sigmas: spec.Sigmas, Freqs: spec.Freqs},
	}
	cells, err := g.Run()
	if err != nil {
		return err
	}
	doc.Meta = report.Meta{}
	var got, exp bytes.Buffer
	if err := report.WriteCSV(&got, &doc); err != nil {
		return err
	}
	if err := report.WriteCSV(&exp, &report.Document{Series: report.FromCells(cells)}); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		return errors.New("result differs from the in-process grid")
	}
	return nil
}

// serviceLayers fills the per-layer metrics seen from the client and
// from the server's job timestamps, pooled over the untraced run's
// repetitions, plus its store traffic and the stack's load and build
// counts.
func serviceLayers(o *outcome, run *serviceRun) {
	jobs := 0
	for _, c := range []struct {
		name string
		reps [][]jobRecord
	}{{"warm", run.warm}, {"fresh", run.fresh}} {
		var lat, queue, exec, httpMs []float64
		var cells, cached int
		for _, recs := range c.reps {
			jobs += len(recs)
			for _, r := range recs {
				if r.err != nil || r.status.Started == nil || r.status.Finished == nil {
					continue
				}
				st := r.status
				ms := float64(r.latency) / 1e6
				lat = append(lat, ms)
				queue = append(queue, float64(st.Started.Sub(st.Created))/1e6)
				exec = append(exec, float64(st.Finished.Sub(*st.Started))/1e6)
				httpMs = append(httpMs, ms-float64(st.Finished.Sub(st.Created))/1e6)
				cells += st.Cells
				cached += st.CachedCells
			}
		}
		o.set("client.job_ms.p50."+c.name, median(lat))
		o.set("client.job_ms.p90."+c.name, quantile(lat, 0.9))
		o.set("server.queue_ms.p50."+c.name, median(queue))
		o.set("server.run_ms.p50."+c.name, median(exec))
		o.set("client.http_ms.p50."+c.name, median(httpMs))
		o.samples["job_ms."+c.name] = len(lat)
		if c.name == "warm" && cells > 0 {
			o.set("server.cached_cell_frac.warm", float64(cached)/float64(cells))
		}
	}
	var wall float64
	for _, w := range run.walls {
		wall += w
	}
	o.set("client.jobs_per_s", float64(jobs)/wall)
	if run.mgrStats.Submitted > 0 {
		o.set("server.dedup_frac", float64(run.mgrStats.Deduped)/float64(run.mgrStats.Submitted))
	}
	o.set("artifact.hits", float64(run.store.Hits))
	o.set("artifact.misses", float64(run.store.Misses))
	o.set("artifact.puts", float64(run.store.Puts))
	if n := run.store.Hits + run.store.Misses; n > 0 {
		o.set("artifact.hit_frac", float64(run.store.Hits)/float64(n))
	}
	o.set("dta.characterizations", float64(run.sys.Char.ComputedCount()))
	o.set("dta.loaded", float64(run.sys.Char.LoadedCount()))
	o.set("fi.models_built", float64(run.sys.ModelsBuiltCount()))
	o.set("core.goldens_recorded", float64(run.sys.GoldenRecordedCount()))
	o.set("core.goldens_loaded", float64(run.sys.GoldenLoadedCount()))
	o.set("fi.hazards_built", float64(run.sys.HazardBuiltCount()))
	o.set("fi.hazards_loaded", float64(run.sys.HazardLoadedCount()))
	trials := 0
	for _, recs := range run.fresh {
		trials += sumTrials(resultCells(recs))
	}
	o.set("mc.trials", float64(trials))
}
