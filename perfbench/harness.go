package main

import (
	"fmt"
	"sort"
	"time"

	"xorbp/internal/btb"
	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/experiment"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// The layer harness splits a cell's host time below the executor. It
// rebuilds a fixed sample of evaluation cells from their wire specs
// with the public constructors, checks that each rebuilt cell
// reproduces the executor's cycles and MPKI exactly, and times:
//
//   - the full core run (warm-up, stats reset, measurement),
//   - the generator drain of the events that run consumed,
//   - PredictUpdate replayed over the recorded conditional-branch
//     stream, with the cell's mechanism and with Baseline,
//   - BTB lookups/updates replayed over the recorded branch stream,
//   - construction, and a mid-run snapshot restore.
//
// Engine self time is the full run minus the drain and the mechanism
// replay. The parts are timed separately, so they can exceed the whole
// only by measurement noise: reconcileTol bounds that, and also how far
// the harness's cell time (construction plus full run, one thread) may
// stray from the executor's own timing of the same cells (two workers
// sharing the caches, at another moment). The signed remainder of the
// latter is bench.unattributed_frac; it measured -3% to +12% on a
// 2-vCPU VM.
const (
	reconcileTol = 0.4
	harnessReps  = 3 // timed repetitions per part; the median is kept
)

// harnessCountNames are the harness's deterministic counts, recorded
// per evaluation seed in digests.json.
var harnessCountNames = []string{"cpu.kinst", "predictor.cond_branches",
	"core.flushes", "core.rotations", "core.ctx_switches", "core.priv_switches"}

// predictorModule maps a predictor name to the package implementing it.
var predictorModule = map[string]string{
	"gshare": "gshare", "perceptron": "perceptron", "tournament": "tournament",
	"ltage": "tage", "tage": "tage", "tage_sc_l": "tagescl",
}

// branch is one recorded conditional branch as the predictor saw it.
type branch struct {
	d     core.Domain
	pc    uint64
	taken bool
}

// harnessResult is the harness's per-layer metrics and counts.
type harnessResult struct {
	metrics map[string]metric
	counts  map[string]uint64
	// fullNS is the sampled cells' full-run time; partsNS the drain and
	// mechanism-replay time timed separately for the same cells.
	fullNS, partsNS float64
}

// reconcile checks that the separately timed parts fit in the full runs
// and that the harness's cell time matches the executor's.
func (h harnessResult) reconcile() error {
	if h.partsNS > (1+reconcileTol)*h.fullNS {
		return fmt.Errorf("harness: drain and predictor replay take %.0f%% of the full runs; tolerance is %.0f%%",
			100*h.partsNS/h.fullNS, 100*(1+reconcileTol))
	}
	u := h.metrics["bench.unattributed_frac"].Value
	if u > reconcileTol || u < -reconcileTol {
		return fmt.Errorf("harness: rebuilt cells take %.0f%% of the executor's time for them; tolerance is ±%.0f%%",
			100*(1-u), reconcileTol*100)
	}
	return nil
}

// sampleSpecs picks the sample: the first cell of every (engine,
// predictor, mechanism) stratum in a seed-independent order. Forking
// cells (a periodic re-key) are left out: the executor runs them from a
// shared prefix, so its timing of them is not one whole cell.
func sampleSpecs(specs []wire.Spec) []wire.Spec {
	order := func(s wire.Spec) string {
		s.Scale.Seed = 0
		return string(s.Encode())
	}
	sorted := append([]wire.Spec(nil), specs...)
	sort.Slice(sorted, func(i, j int) bool { return order(sorted[i]) < order(sorted[j]) })
	seen := make(map[string]bool)
	var out []wire.Spec
	for _, s := range sorted {
		if s.Kind != "" || s.Opts.RekeyPeriod > 0 {
			continue
		}
		stratum := fmt.Sprintf("%d/%s/%d", s.Cfg.HWThreads, s.Pred, s.Opts.Mechanism)
		if !seen[stratum] {
			seen[stratum] = true
			out = append(out, s)
		}
	}
	return out
}

// cell is one sampled spec, rebuilt.
type cell struct {
	spec wire.Spec
	opts core.Options
	smt  bool
}

func newCell(s wire.Spec) (cell, error) {
	codec, ok := core.CodecByName(s.Codec)
	if !ok {
		return cell{}, fmt.Errorf("harness: unknown codec %q", s.Codec)
	}
	scr, ok := core.ScramblerByName(s.Scrambler)
	if !ok {
		return cell{}, fmt.Errorf("harness: unknown scrambler %q", s.Scrambler)
	}
	o := s.Opts
	o.Codec, o.Scrambler = codec, scr
	return cell{spec: s, opts: o, smt: s.Cfg.HWThreads > 1}, nil
}

// build constructs the cell's core the way the executor does. wrapDir
// and wrapProg, when set, interpose on the predictor and the programs.
func (c cell) build(wrapDir func(predictor.DirPredictor) predictor.DirPredictor,
	wrapProg func(*workload.Generator) workload.Program) (*cpu.Core, *core.Controller) {
	s := c.spec
	ctrl := core.NewController(c.opts, s.Scale.Seed)
	dir := experiment.NewDirPredictor(s.Pred, ctrl)
	if wrapDir != nil {
		dir = wrapDir(dir)
	}
	k := cpu.New(s.Cfg, cpu.DefaultScheduler(s.Timer), ctrl, dir)
	k.SetEngine(cpu.EngineFast)
	var progs []workload.Program
	for i, n := range s.Threads {
		g := workload.NewGenerator(workload.MustByName(n), s.Scale.Seed*1000+uint64(i))
		if wrapProg != nil {
			progs = append(progs, wrapProg(g))
		} else {
			progs = append(progs, g)
		}
	}
	k.Assign(progs...)
	return k, ctrl
}

func (c cell) goals() (warm, meas uint64) {
	if c.smt {
		return c.spec.Scale.SMTWarmupInstr, c.spec.Scale.SMTMeasureInstr
	}
	return c.spec.Scale.WarmupInstr, c.spec.Scale.MeasureInstr
}

func (c cell) advance(k *cpu.Core, n uint64) {
	if c.smt {
		k.RunTotalInstructions(n)
	} else {
		k.RunTargetInstructions(n)
	}
}

// runStats is what one full run of a cell observed.
type runStats struct {
	cycles      uint64
	mpki        float64
	instr       uint64 // user instructions retired, warm-up + measurement
	kernelBr    []uint64
	ctx, priv   uint64
	flush, rots uint64
}

// run drives the executor's lifecycle: warm up, reset stats, measure.
func (c cell) run(k *cpu.Core, ctrl *core.Controller) runStats {
	warm, meas := c.goals()
	c.advance(k, warm)
	rs := runStats{instr: k.UserInstructions(), kernelBr: make([]uint64, c.spec.Cfg.HWThreads)}
	for hw := range rs.kernelBr {
		rs.kernelBr[hw] = k.KernelStatsOf(hw).Branches
	}
	k.ResetStats()
	start := k.Cycles()
	c.advance(k, meas)
	rs.instr += k.UserInstructions()
	for hw := range rs.kernelBr {
		rs.kernelBr[hw] += k.KernelStatsOf(hw).Branches
	}
	if c.smt {
		rs.cycles = k.Cycles() - start
	} else {
		rs.cycles = k.ThreadCyclesOf(0, 0)
	}
	rs.mpki = k.ThreadStatsOf(0, 0).MPKI()
	rs.ctx, rs.priv, rs.flush, rs.rots = ctrl.Stats()
	return rs
}

// recordingDir records the conditional-branch stream a predictor sees.
// It always offers PredictUpdate (falling back to Predict then Update,
// which the DirPredictor contract makes equivalent) and forwards
// Entries so a PreciseFlush walk is sized as for the bare predictor.
type recordingDir struct {
	predictor.DirPredictor
	pu     predictor.PredictUpdater
	stream []branch
}

func (r *recordingDir) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	r.stream = append(r.stream, branch{d, pc, taken})
	if r.pu != nil {
		return r.pu.PredictUpdate(d, pc, taken)
	}
	p := r.DirPredictor.Predict(d, pc)
	r.DirPredictor.Update(d, pc, taken)
	return p
}

func (r *recordingDir) Entries() uint64 {
	if ec, ok := r.DirPredictor.(interface{ Entries() uint64 }); ok {
		return ec.Entries()
	}
	return r.DirPredictor.StorageBits() / 8
}

// recordingProg records the events a program hands the core.
type recordingProg struct {
	g   *workload.Generator
	evs []workload.BranchEvent
}

func (p *recordingProg) Name() string { return p.g.Name() }

func (p *recordingProg) Next(ev *workload.BranchEvent) {
	p.g.Next(ev)
	p.evs = append(p.evs, *ev)
}

func (p *recordingProg) NextBatch(evs []workload.BranchEvent) int {
	n := p.g.NextBatch(evs)
	p.evs = append(p.evs, evs[:n]...)
	return n
}

// cellTimes are one cell's timed parts (ns).
type cellTimes struct {
	setup, full, drain, events float64
	predMech, predBase         float64
	btb, btbOps                float64
	restore, snapBytes         float64
	stats                      runStats
	branches                   int
}

// measureCell rebuilds and times one cell; want is the executor's
// record of it.
func measureCell(s wire.Spec, want experiment.RunRecord) (cellTimes, error) {
	var ct cellTimes
	c, err := newCell(s)
	if err != nil {
		return ct, err
	}

	// Recording run: the stream the predictor and the BTB are replayed on.
	var rec *recordingDir
	var progs []*recordingProg
	k, ctrl := c.build(func(d predictor.DirPredictor) predictor.DirPredictor {
		pu, _ := d.(predictor.PredictUpdater)
		rec = &recordingDir{DirPredictor: d, pu: pu}
		return rec
	}, func(g *workload.Generator) workload.Program {
		p := &recordingProg{g: g}
		progs = append(progs, p)
		return p
	})
	recStats := c.run(k, ctrl)
	if recStats.cycles != want.Cycles || recStats.mpki != want.MPKI {
		return ct, fmt.Errorf("harness: recording run of %s gives cycles %d MPKI %v, executor %d %v",
			want.Label, recStats.cycles, recStats.mpki, want.Cycles, want.MPKI)
	}
	ct.branches = len(rec.stream)

	var setups, fulls, drains, mechs, bases, btbs []float64
	for i := 0; i < harnessReps; i++ {
		start := time.Now()
		k, ctrl := c.build(nil, nil)
		setups = append(setups, nsSince(start))
		start = time.Now()
		st := c.run(k, ctrl)
		fulls = append(fulls, nsSince(start))
		if st.cycles != want.Cycles || st.mpki != want.MPKI {
			return ct, fmt.Errorf("harness: rebuilt %s gives cycles %d MPKI %v, executor %d %v",
				want.Label, st.cycles, st.mpki, want.Cycles, want.MPKI)
		}
		ct.stats = st

		d, n := drain(c, progs, recStats.kernelBr)
		drains = append(drains, d)
		ct.events = n
		mechs = append(mechs, replay(c.spec, c.opts, rec.stream))
		bases = append(bases, replay(c.spec, core.OptionsFor(core.Baseline), rec.stream))
		b, ops := replayBTB(c, progs)
		btbs = append(btbs, b)
		ct.btbOps = ops
	}
	ct.setup, ct.full, ct.drain = median(setups), median(fulls), median(drains)
	ct.predMech, ct.predBase, ct.btb = median(mechs), median(bases), median(btbs)
	ct.restore, ct.snapBytes = snapRestore(c)
	return ct, nil
}

// drain times fresh generators producing the events the recording run
// consumed: each user program's, and each hardware context's kernel
// handler's (its retired branches).
func drain(c cell, progs []*recordingProg, kernelBr []uint64) (ns, events float64) {
	buf := make([]workload.BranchEvent, 256)
	pull := func(g *workload.Generator, n int) {
		for n > 0 {
			m := g.NextBatch(buf[:min(n, len(buf))])
			n -= m
		}
	}
	gens := make([]*workload.Generator, len(progs))
	for i, n := range c.spec.Threads {
		gens[i] = workload.NewGenerator(workload.MustByName(n), c.spec.Scale.Seed*1000+uint64(i))
	}
	kernels := make([]*workload.Generator, len(kernelBr))
	for hw := range kernels {
		kernels[hw] = workload.NewGenerator(workload.KernelProfile(), cpu.DefaultScheduler(c.spec.Timer).Seed)
	}
	start := time.Now()
	for i, g := range gens {
		pull(g, len(progs[i].evs))
		events += float64(len(progs[i].evs))
	}
	for hw, g := range kernels {
		pull(g, int(kernelBr[hw]))
		events += float64(kernelBr[hw])
	}
	return nsSince(start), events
}

// replay times PredictUpdate over the recorded stream on a fresh
// predictor under opts.
func replay(s wire.Spec, opts core.Options, stream []branch) float64 {
	ctrl := core.NewController(opts, s.Scale.Seed)
	dir := experiment.NewDirPredictor(s.Pred, ctrl)
	pu, ok := dir.(predictor.PredictUpdater)
	start := time.Now()
	for _, b := range stream {
		if ok {
			pu.PredictUpdate(b.d, b.pc, b.taken)
		} else {
			dir.Predict(b.d, b.pc)
			dir.Update(b.d, b.pc, b.taken)
		}
	}
	return nsSince(start)
}

// replayBTB times a fresh Baseline BTB over the recorded user branches:
// a lookup per BTB-using branch, an update per taken one.
func replayBTB(c cell, progs []*recordingProg) (ns, ops float64) {
	b := btb.New(c.spec.Cfg.BTB, core.NewController(core.OptionsFor(core.Baseline), c.spec.Scale.Seed))
	start := time.Now()
	for i, p := range progs {
		d := core.Domain{Thread: core.HWThread(i % c.spec.Cfg.HWThreads), Priv: core.User}
		for _, ev := range p.evs {
			if !ev.Class.UsesBTB() {
				continue
			}
			b.Lookup(d, ev.PC)
			ops++
			if ev.Taken {
				b.Update(d, ev.PC, ev.Target, ev.Class)
			}
		}
	}
	return nsSince(start), ops
}

// snapRestore snapshots a cell's core after warm-up and times restoring
// it into a freshly built core (ns, bytes).
func snapRestore(c cell) (float64, float64) {
	k, _ := c.build(nil, nil)
	if !k.Snapshottable() {
		return 0, 0
	}
	warm, _ := c.goals()
	c.advance(k, warm)
	w := &snap.Writer{}
	k.Snapshot(w)
	data := w.Bytes()
	var ts []float64
	for i := 0; i < harnessReps; i++ {
		fresh, _ := c.build(nil, nil)
		start := time.Now()
		fresh.Restore(snap.NewReader(data))
		ts = append(ts, nsSince(start))
	}
	return median(ts), float64(len(data))
}

// runHarness measures every sampled cell; recs are the executor's
// records of the same evaluation, by wire key.
func runHarness(specs []wire.Spec, recs map[string]experiment.RunRecord) (harnessResult, error) {
	type acc struct{ ns, n float64 }
	var (
		pred                    = map[string]*acc{}
		encode                  = map[string]*acc{"xor": {}, "noisy_xor": {}}
		self                    = map[string]*acc{"single": {}, "smt": {}}
		drainAcc, btbAcc        acc
		setups, restores, bytes []float64
		harnessNS, executorNS   float64
		fullNS, partsNS         float64
		instr, branches         uint64
		ctx, priv, flush, rots  uint64
	)
	for _, m := range predictorModule {
		pred[m] = &acc{}
	}
	for _, s := range sampleSpecs(specs) {
		want, ok := recs[s.Key()]
		if !ok {
			return harnessResult{}, fmt.Errorf("harness: no executor record for sampled cell %s", s.Key())
		}
		ct, err := measureCell(s, want)
		if err != nil {
			return harnessResult{}, err
		}
		engineSelf := ct.full - ct.drain - ct.predMech
		fullNS += ct.full
		partsNS += ct.drain + ct.predMech
		kind := "single"
		if s.Cfg.HWThreads > 1 {
			kind = "smt"
		}
		self[kind].ns += engineSelf
		self[kind].n += float64(ct.stats.instr) / 1000
		p := pred[predictorModule[s.Pred]]
		p.ns += ct.predBase
		p.n += float64(ct.branches)
		switch s.Opts.Mechanism {
		case core.XOR:
			encode["xor"].ns += ct.predMech - ct.predBase
			encode["xor"].n += float64(ct.branches)
		case core.NoisyXOR:
			encode["noisy_xor"].ns += ct.predMech - ct.predBase
			encode["noisy_xor"].n += float64(ct.branches)
		}
		drainAcc.ns += ct.drain
		drainAcc.n += ct.events
		btbAcc.ns += ct.btb
		btbAcc.n += ct.btbOps
		setups = append(setups, ct.setup/1e3)
		if ct.snapBytes > 0 {
			restores = append(restores, ct.restore/1e3)
			bytes = append(bytes, ct.snapBytes)
		}
		harnessNS += ct.setup + ct.full
		executorNS += want.DurationMS * 1e6
		instr += ct.stats.instr
		branches += uint64(ct.branches)
		ctx += ct.stats.ctx
		priv += ct.stats.priv
		flush += ct.stats.flush
		rots += ct.stats.rots
	}
	per := func(a acc) float64 {
		if a.n == 0 {
			return 0
		}
		return a.ns / a.n
	}
	unattributed := 1 - harnessNS/executorNS
	m := map[string]metric{
		"workload.ns_per_event":               {per(drainAcc), "ns"},
		"btb.ns_per_branch":                   {per(btbAcc), "ns"},
		"cpu.single.self_ns_per_kinst":        {per(*self["single"]), "ns/kinst"},
		"cpu.smt.self_ns_per_kinst":           {per(*self["smt"]), "ns/kinst"},
		"core.encode_ns_per_branch.xor":       {per(*encode["xor"]), "ns"},
		"core.encode_ns_per_branch.noisy_xor": {per(*encode["noisy_xor"]), "ns"},
		"experiment.cell_setup_us":            {median(setups), "us"},
		"snap.restore_us":                     {median(restores), "us"},
		"snap.bytes":                          {median(bytes), "bytes"},
		"bench.unattributed_frac":             {unattributed, "ratio"},
	}
	for mod, a := range pred {
		m[mod+".ns_per_branch"] = metric{per(*a), "ns"}
	}
	counts := map[string]uint64{
		"cpu.kinst":               instr / 1000,
		"predictor.cond_branches": branches,
		"core.flushes":            flush,
		"core.rotations":          rots,
		"core.ctx_switches":       ctx,
		"core.priv_switches":      priv,
	}
	for k, v := range counts {
		m[k] = metric{float64(v), "count"}
	}
	return harnessResult{metrics: m, counts: counts, fullNS: fullNS, partsNS: partsNS}, nil
}
