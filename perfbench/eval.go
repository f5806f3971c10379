package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// setupReps is how many times a run repeats a cheap set-up; setup_s is
// the median.
const setupReps = 25

// evalTables are the simulated figures and tables of `bpsim -exp all`,
// in bpsim's order. The static tables (table2, table3, workloads,
// table5) resolve no simulation and are left out.
var evalTables = []struct {
	name string
	run  func(*experiment.Session) *experiment.Table
}{
	{"fig1", (*experiment.Session).Figure1},
	{"fig2", (*experiment.Session).Figure2},
	{"fig3", (*experiment.Session).Figure3},
	{"fig7", (*experiment.Session).Figure7},
	{"fig8", (*experiment.Session).Figure8},
	{"fig9", (*experiment.Session).Figure9},
	{"fig10", (*experiment.Session).Figure10},
	{"rekey", (*experiment.Session).RekeySweep},
	{"table4", (*experiment.Session).Table4},
	{"mpki", (*experiment.Session).MPKI},
	{"residency", (*experiment.Session).BTBResidency},
}

// evalScale is the MicroScale evaluation at one recorded seed.
func evalScale(seed uint64) experiment.Scale {
	s := experiment.MicroScale()
	s.Seed = seed
	return s
}

// planGrid plans the evaluation tables named by keep (all when nil)
// against a planning executor, as bpsim does before its first
// simulation.
func planGrid(scale experiment.Scale, keep func(string) bool) *experiment.Executor {
	p := experiment.NewPlanner()
	s := experiment.NewSessionWith(scale, p)
	for _, t := range evalTables {
		if keep == nil || keep(t.name) {
			t.run(s)
		}
	}
	return p
}

// evalPassResult is what one evaluation pass produced.
type evalPassResult struct {
	dir     string // the run-cache directory
	wall    time.Duration
	tabs    []rendered
	planned []string
	recs    map[string]experiment.RunRecord
	// cellMS are the executed cells' durations (replays take none).
	cellMS []float64
	// counts are the executor's deterministic counts.
	counts map[string]uint64
	store  *runcache.Store
	err    error
}

// evalPass is one bpsim-style evaluation over the run-cache directory
// dir: open the cache, build a fresh two-worker executor over
// LocalBackend with its default in-memory snapshot store and
// write-through to the cache, plan (planner nil: inside the pass),
// resolve and render every table. Spans go to tr when it is non-nil;
// the executor and its backend are the same either way.
func evalPass(scale experiment.Scale, planner *experiment.Executor, dir string, tr *tracer) evalPassResult {
	r := evalPassResult{dir: dir}
	start := time.Now()
	tr.span("runcache.open", func() { r.store, r.err = runcache.Open(dir, experiment.SchemaVersion()) })
	if r.err != nil {
		return r
	}
	exec := experiment.NewExecutorWith(execWorkers, experiment.LocalBackend{})
	exec.SetStore(r.store)
	r.recs = make(map[string]experiment.RunRecord)
	exec.SetRecord(func(rec experiment.RunRecord) { // serialized by the executor
		r.recs[rec.Key] = rec
		if !rec.Cached {
			r.cellMS = append(r.cellMS, rec.DurationMS)
			tr.add("experiment.cell", time.Duration(rec.DurationMS*float64(time.Millisecond)))
		}
	})
	if planner == nil {
		tr.span("experiment.plan", func() { planner = planGrid(scale, nil) })
	}
	exec.Plan(planner)
	s := experiment.NewSessionWith(scale, exec)
	for _, t := range evalTables {
		var tab *experiment.Table
		tr.span("session."+t.name, func() { tab = t.run(s) })
		var text string
		tr.span("report.render", func() { text = tab.Render() })
		r.tabs = append(r.tabs, rendered{t.name, text})
	}
	r.wall = time.Since(start)
	r.err = exec.Err()
	r.planned = exec.PlannedKeys()
	r.counts = map[string]uint64{
		"experiment.cells_simulated": exec.Runs(),
		"experiment.cells_replayed":  uint64(exec.Replays()),
		"experiment.snapshots":       uint64(exec.Snapshots().Len()),
	}
	return r
}

// executorCounts are the evaluation's recorded executor counts.
var executorCounts = []string{"experiment.cells_simulated", "experiment.cells_replayed", "experiment.snapshots"}

// evalCold measures cold evaluation passes: each one simulates the
// whole grid into an empty run cache. The op is a cell.
func evalCold(e env, traced bool) (outcome, error) {
	seed := evalSeed(e.seed)
	scale := evalScale(seed)
	ref := e.ref.eval(seed)
	behind := func(table string) []string {
		return planGrid(scale, func(n string) bool { return n == table }).PlannedKeys()
	}

	var o outcome
	var planner *experiment.Executor
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		planner = planGrid(scale, nil)
		o.setup = append(o.setup, time.Since(start).Seconds())
	}

	pass := 0
	run := func(tr *tracer) (evalPassResult, error) {
		dir := filepath.Join(e.scratch, fmt.Sprintf("cold-%d", pass))
		pass++
		r := evalPass(scale, planner, dir, tr)
		if r.err != nil {
			return r, fmt.Errorf("eval_cold: %w", r.err)
		}
		failed := failedCells(r.tabs, ref.Tables, behind, r.planned, r.recs, true)
		o.attempted += len(r.planned)
		o.failed += len(failed)
		o.addPass(len(r.recs), r.wall)
		o.ops = append(o.ops, r.cellMS...)
		if err := compareCounts("eval_cold pass", r.counts, subset(ref.Counts, executorCounts...)); err != nil && o.gateErr == nil {
			o.gateErr = err
		}
		return r, nil
	}

	if traced {
		return evalColdTraced(e, scale, ref, &o, run)
	}
	start := time.Now()
	var last time.Duration
	for pass == 0 || morePasses(time.Since(start), last, e.budget) {
		r, err := run(nil)
		if err != nil {
			return o, err
		}
		last = r.wall
		if err := os.RemoveAll(r.dir); err != nil {
			return o, err
		}
	}
	return o, nil
}

// evalColdTraced runs a traced cold pass between two untraced ones,
// asserts that they agree, and derives the per-layer metrics from the
// traced pass, the layer harness and the store microbenchmarks.
func evalColdTraced(e env, scale experiment.Scale, ref seedRef, o *outcome,
	run func(*tracer) (evalPassResult, error)) (outcome, error) {
	plain, err := run(nil)
	if err != nil {
		return *o, err
	}
	tr := newTracer()
	tp, err := run(tr)
	if err != nil {
		return *o, err
	}
	after, err := run(nil)
	if err != nil {
		return *o, err
	}
	if err := sameRun(plain, tp); err != nil {
		return *o, err
	}
	if err := sameRun(plain, after); err != nil {
		return *o, err
	}
	plainWall := (plain.wall + after.wall).Seconds() / 2

	specs := captureSpecs(scale)
	var goalInstr float64
	for _, s := range specs {
		goalInstr += float64(instrGoal(s))
	}
	l := map[string]metric{
		"bench.trace_overhead_frac":  {tp.wall.Seconds()/plainWall - 1, "ratio"},
		"experiment.sim_minst_per_s": {goalInstr / 1e6 / plainWall, "Minst/s"},
		"experiment.slot_idle_frac":  {1 - tr.total("experiment.cell")/(execWorkers*ms(tp.wall)), "ratio"},
		"report.render_ms":           {tr.total("report.render"), "ms"},
		"runcache.open_ms":           {median(tr.durations("runcache.open")), "ms"},
	}
	addPassCounts(l, tp)
	if err := storeLayers(l, e.scratch, tp, specs); err != nil {
		return *o, err
	}

	h, err := runHarness(specs, tp.recs)
	if err != nil {
		return *o, err
	}
	for k, v := range h.metrics {
		l[k] = v
	}
	if err := compareCounts("layer harness", h.counts, subset(ref.Counts, harnessCountNames...)); err != nil && o.gateErr == nil {
		o.gateErr = err
	}
	if err := h.reconcile(); err != nil && o.gateErr == nil {
		o.gateErr = err
	}
	o.layers = l
	return *o, nil
}

// sameRun asserts that a traced pass kept the untraced code paths: the
// same rendered tables and the same executor counts.
func sameRun(plain, traced evalPassResult) error {
	if bad := mismatched(traced.tabs, digests(plain.tabs)); len(bad) > 0 {
		return fmt.Errorf("traced pass rendered %v differently from the untraced pass", bad)
	}
	return compareCounts("traced pass vs untraced pass", traced.counts, plain.counts)
}

// addPassCounts reports a pass's executor and store counts.
func addPassCounts(l map[string]metric, r evalPassResult) {
	for _, k := range executorCounts {
		l[k] = metric{float64(r.counts[k]), "count"}
	}
	st := r.store.Stats()
	l["runcache.hit_ratio"] = metric{frac(st.Hits, st.Hits+st.Misses), "ratio"}
	l["runcache.entries"] = metric{float64(r.store.Len()), "count"}
	l["runcache.quarantined"] = metric{float64(st.Quarantined), "count"}
}

// storeLayers times the store and wire calls the executor makes per
// cell, by making them from here over the pass's cells: Get and
// DecodeResult over every stored result, Put of every result into a
// fresh directory, and Key over every captured spec.
func storeLayers(l map[string]metric, scratch string, r evalPassResult, specs []wire.Spec) error {
	st, err := runcache.Open(r.dir, experiment.SchemaVersion())
	if err != nil {
		return err
	}
	fresh, err := runcache.Open(filepath.Join(scratch, "put"), experiment.SchemaVersion())
	if err != nil {
		return err
	}
	var get, dec, put, key []float64
	for _, k := range r.planned {
		start := time.Now()
		raw, ok := st.Get(k)
		get = append(get, usSince(start))
		if !ok {
			return fmt.Errorf("store microbenchmark: key %s missing from the pass's store", k)
		}
		start = time.Now()
		_, err := wire.DecodeResult(raw)
		dec = append(dec, usSince(start))
		if err != nil {
			return err
		}
		start = time.Now()
		err = fresh.Put(k, raw)
		put = append(put, usSince(start))
		if err != nil {
			return err
		}
	}
	for _, s := range specs {
		start := time.Now()
		_ = s.Key()
		key = append(key, usSince(start))
	}
	l["runcache.get_us"] = metric{median(get), "us"}
	l["runcache.put_us"] = metric{median(put), "us"}
	l["wire.result_decode_us"] = metric{median(dec), "us"}
	l["wire.spec_key_us"] = metric{median(key), "us"}
	return os.RemoveAll(filepath.Join(scratch, "put"))
}

// captureBackend records every spec dispatched to it and answers with a
// placeholder result; an executor over it enumerates a grid's wire
// specs without simulating (the tables it renders are discarded).
type captureBackend struct {
	mu    sync.Mutex
	specs []wire.Spec
}

func (c *captureBackend) Run(_ context.Context, s wire.Spec) (wire.Result, error) {
	c.mu.Lock()
	c.specs = append(c.specs, s)
	c.mu.Unlock()
	return wire.Result{Cycles: 1, Target: cpu.ThreadStats{Instructions: 1}}, nil
}

// captureSpecs returns the wire spec of every cell of the evaluation.
func captureSpecs(scale experiment.Scale) []wire.Spec {
	cb := &captureBackend{}
	s := experiment.NewSessionWith(scale, experiment.NewExecutorWith(1, cb))
	for _, t := range evalTables {
		t.run(s)
	}
	return cb.specs
}

// instrGoal is a performance cell's simulated instruction budget:
// warm-up plus measurement.
func instrGoal(s wire.Spec) uint64 {
	if s.Cfg.HWThreads > 1 {
		return s.Scale.SMTWarmupInstr + s.Scale.SMTMeasureInstr
	}
	return s.Scale.WarmupInstr + s.Scale.MeasureInstr
}

// evalWarm measures warm passes: set-up populates a run cache with one
// cold pass; each measured pass opens that cache, builds a fresh
// executor, plans and renders every table without simulating. The op
// is a pass.
//
// A warm pass resolves every cell on the calling goroutine, so the
// measured passes run on one P and are timed in process CPU time: on an
// idle machine that is the pass's wall time, and on a shared VM it
// leaves out the time the hypervisor stole from the vCPU, which moved
// the median wall-clock pass by 38% between two runs of one seed.
func evalWarm(e env, traced bool) (outcome, error) {
	seed := evalSeed(e.seed)
	scale := evalScale(seed)
	ref := e.ref.eval(seed)
	dir := filepath.Join(e.scratch, "warm")

	var o outcome
	start := time.Now()
	setup := evalPass(scale, planGrid(scale, nil), dir, nil)
	o.setup = []float64{time.Since(start).Seconds()}
	if setup.err != nil {
		return o, fmt.Errorf("eval_warm set-up: %w", setup.err)
	}
	if err := compareCounts("eval_warm set-up pass", setup.counts, subset(ref.Counts, executorCounts...)); err != nil {
		o.gateErr = err
	}
	o.attempted++
	if len(mismatched(setup.tabs, ref.Tables)) > 0 || len(setup.recs) != len(setup.planned) {
		o.failed++
	}
	setupDigests := digests(setup.tabs)
	cells := ref.Counts["experiment.cells_simulated"]
	wantCounts := map[string]uint64{
		"experiment.cells_simulated": 0,
		"experiment.cells_replayed":  cells,
		"experiment.snapshots":       0,
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(tr *tracer) (evalPassResult, error) {
		cpu := cpuTime()
		r := evalPass(scale, nil, dir, tr)
		cpu = cpuTime() - cpu
		if r.err != nil {
			return r, fmt.Errorf("eval_warm: %w", r.err)
		}
		o.attempted++
		if len(mismatched(r.tabs, setupDigests)) > 0 || len(mismatched(r.tabs, ref.Tables)) > 0 ||
			len(failedCells(nil, nil, nil, r.planned, r.recs, true)) > 0 {
			o.failed++
		}
		o.addPass(len(r.recs), cpu)
		o.ops = append(o.ops, ms(cpu))
		if err := compareCounts("eval_warm pass", r.counts, wantCounts); err != nil && o.gateErr == nil {
			o.gateErr = err
		}
		return r, nil
	}
	loop := func(budget time.Duration, tr *tracer) (evalPassResult, error) {
		var r evalPassResult
		var err error
		begin := time.Now()
		for first := true; first || morePasses(time.Since(begin), r.wall, budget); first = false {
			if r, err = run(tr); err != nil {
				return r, err
			}
		}
		return r, nil
	}

	if !traced {
		_, err := loop(e.budget, nil)
		return o, err
	}
	plain, err := loop(e.budget/2, nil)
	if err != nil {
		return o, err
	}
	untracedOps := append([]float64(nil), o.ops...)
	tr := newTracer()
	tp, err := loop(e.budget/2, tr)
	if err != nil {
		return o, err
	}
	if err := sameRun(plain, tp); err != nil {
		return o, err
	}
	tracedOps := o.ops[len(untracedOps):]
	passes := float64(len(tracedOps))
	l := map[string]metric{
		"bench.trace_overhead_frac": {median(tracedOps)/median(untracedOps) - 1, "ratio"},
		"report.render_ms":          {tr.total("report.render") / passes, "ms"},
		"runcache.open_ms":          {median(tr.durations("runcache.open")), "ms"},
		"experiment.plan_ms":        {median(tr.durations("experiment.plan")), "ms"},
	}
	addPassCounts(l, tp)
	if err := storeLayers(l, e.scratch, tp, captureSpecs(scale)); err != nil {
		return o, err
	}
	o.layers = l
	return o, nil
}
