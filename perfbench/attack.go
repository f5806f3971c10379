package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/report"
	"xorbp/internal/secsweep"
)

// fleetPool is the leader executor's fan-out, bpsim -fleet's default:
// submissions mostly block in the queue, so the width only has to keep
// every claimer supplied.
const fleetPool = 128

// sweepTables are the security sweep's tables in secsweep.Tables order.
var sweepTables = []struct {
	name string
	run  func(*secsweep.Sweep) *report.Table
}{
	{"matrix_single", func(s *secsweep.Sweep) *report.Table { return s.Matrix(attack.SingleThreaded) }},
	{"matrix_smt", func(s *secsweep.Sweep) *report.Table { return s.Matrix(attack.SMT) }},
	{"rekey_curve", (*secsweep.Sweep).RekeyCurve},
	{"predictor_matrix", (*secsweep.Sweep).PredictorMatrix},
	{"verdicts", (*secsweep.Sweep).Verdicts},
}

func sweepConfig(seed uint64) secsweep.Config {
	cfg := secsweep.QuickConfig()
	cfg.Attack.Seed = seed
	return cfg
}

// planSweep plans the sweep tables named by keep (all when nil).
func planSweep(seed uint64, keep func(string) bool) *experiment.Executor {
	p := experiment.NewPlanner()
	sw := secsweep.New(sweepConfig(seed), p)
	for _, t := range sweepTables {
		if keep == nil || keep(t.name) {
			t.run(sw)
		}
	}
	return p
}

// loopFleet is a pull leader on a loopback port with its workers.
type loopFleet struct {
	q      *fleet.Queue
	leader *fleet.Leader
	hs     *http.Server
	served chan error
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// startFleet starts a fresh queue, leader and execWorkers pull workers
// of one slot each. With a tracer, the leader's handler and each
// worker's backend are wrapped in spans.
func startFleet(tr *tracer) (*loopFleet, error) {
	f := &loopFleet{q: fleet.NewQueue(0, time.Now), served: make(chan error, 1)}
	f.leader = fleet.NewLeader(f.q, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet leader: %w", err)
	}
	var h http.Handler = f.leader.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	f.hs = &http.Server{Handler: h}
	go func() { f.served <- f.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < execWorkers; i++ {
		var b experiment.Backend = experiment.LocalBackend{}
		if tr != nil {
			b = tracedBackend{inner: b, t: tr, name: "worker.run"}
		}
		w := fleet.NewPullWorker(ln.Addr().String(), fmt.Sprintf("w%d", i), b, nil, 0, 1)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := w.Run(ctx); err != nil {
				f.mu.Lock()
				f.errs = append(f.errs, err)
				f.mu.Unlock()
			}
		}()
	}
	return f, nil
}

// stop cancels the workers, waits for them to return, and closes the
// leader. It returns the workers' errors.
func (f *loopFleet) stop() error {
	f.cancel()
	f.wg.Wait()
	err := f.hs.Close()
	if serr := <-f.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(append(f.errs, err)...)
}

// fleetSetup starts a fleet, waits until every worker has polled the
// leader once, and stops it: the fixed cost every round pays.
func fleetSetup() (time.Duration, error) {
	start := time.Now()
	f, err := startFleet(nil)
	if err != nil {
		return 0, err
	}
	for f.q.Stats().Workers < execWorkers && time.Since(start) < 10*time.Second {
		time.Sleep(time.Millisecond)
	}
	polled := f.q.Stats().Workers
	if err := f.stop(); err != nil {
		return 0, err
	}
	if polled < execWorkers {
		return 0, fmt.Errorf("fleet set-up: %d of %d workers polled the leader within 10s", polled, execWorkers)
	}
	return time.Since(start), nil
}

// roundResult is one sweep round.
type roundResult struct {
	wall      time.Duration
	tabs      []rendered
	planned   []string
	recs      map[string]experiment.RunRecord
	cellMS    []float64
	workerErr error
	counts    map[string]uint64
	stats     fleet.Stats
	memoHits  uint64
}

// pullRound runs one QuickConfig sweep through a fresh loopback fleet.
// The round's wall time runs from starting the leader to the fleet's
// shutdown.
func pullRound(seed uint64, tr *tracer) (roundResult, error) {
	r := roundResult{recs: make(map[string]experiment.RunRecord)}
	start := time.Now()
	f, err := startFleet(tr)
	if err != nil {
		return r, err
	}
	var b experiment.Backend = f.leader.Backend()
	if tr != nil {
		b = tracedBackend{inner: b, t: tr, name: "leader.submit"}
	}
	exec := experiment.NewExecutorWith(fleetPool, b)
	exec.SetRecord(func(rec experiment.RunRecord) { // serialized by the executor
		r.recs[rec.Key] = rec
		r.cellMS = append(r.cellMS, rec.DurationMS)
	})
	exec.Plan(planSweep(seed, nil))
	sw := secsweep.New(sweepConfig(seed), exec)
	for _, t := range sweepTables {
		var tab *report.Table
		tr.span("sweep."+t.name, func() { tab = t.run(sw) })
		var text string
		tr.span("report.render", func() { text = tab.Render() })
		r.tabs = append(r.tabs, rendered{t.name, text})
	}
	r.workerErr = errors.Join(exec.Err(), f.stop())
	r.wall = time.Since(start)
	r.planned = exec.PlannedKeys()
	r.stats = f.q.Stats()
	r.memoHits = exec.Runs() - uint64(r.stats.Submitted)
	r.counts = map[string]uint64{
		"experiment.cells_simulated": exec.Runs(),
		"experiment.cells_replayed":  uint64(exec.Replays()),
	}
	return r, nil
}

// attackPull measures rounds of the security sweep, each through a
// fresh pull fleet and on its own recorded seed. The op is a cell,
// timed from the leader's submit to its result.
func attackPull(e env, traced bool) (outcome, error) {
	var o outcome
	for i := 0; i < setupReps; i++ {
		d, err := fleetSetup()
		if err != nil {
			return o, err
		}
		o.setup = append(o.setup, d.Seconds())
	}

	round := 0
	run := func(tr *tracer) (roundResult, error) {
		seed := attackSeed(e.seed, round)
		round++
		ref := e.ref.attack(seed)
		r, err := pullRound(seed, tr)
		if err != nil {
			return r, err
		}
		o.attempted += len(r.planned)
		if r.workerErr != nil {
			fmt.Printf("perfbench: round %d (seed %d): worker error: %v\n", round, seed, r.workerErr)
			o.failed += len(r.planned)
		} else {
			behind := func(table string) []string {
				return planSweep(seed, func(n string) bool { return n == table }).PlannedKeys()
			}
			o.failed += len(failedCells(r.tabs, ref.Tables, behind, r.planned, r.recs, false))
		}
		o.addPass(len(r.recs), r.wall)
		o.ops = append(o.ops, r.cellMS...)
		if err := compareCounts(fmt.Sprintf("attack_pull round (seed %d)", seed), r.counts, ref.Counts); err != nil && o.gateErr == nil {
			o.gateErr = err
		}
		return r, nil
	}
	loop := func(budget time.Duration, tr *tracer) ([]roundResult, error) {
		var rs []roundResult
		begin := time.Now()
		for len(rs) == 0 || morePasses(time.Since(begin), rs[len(rs)-1].wall, budget) {
			r, err := run(tr)
			if err != nil {
				return rs, err
			}
			rs = append(rs, r)
		}
		return rs, nil
	}

	if !traced {
		_, err := loop(e.budget, nil)
		return o, err
	}
	plain, err := loop(e.budget/2, nil)
	if err != nil {
		return o, err
	}
	tr := newTracer()
	rounds, err := loop(e.budget/2, tr)
	if err != nil {
		return o, err
	}
	o.layers = fleetLayers(tr, plain, rounds)
	return o, nil
}

// fleetLayers derives the attack_pull per-layer metrics from the traced
// rounds; plain are the untraced rounds of the same run.
func fleetLayers(tr *tracer, plain, rounds []roundResult) map[string]metric {
	n := float64(len(rounds))
	var wall, plainWall []float64
	var stolen, late, dups, memo, sims, replays float64
	for _, r := range plain {
		plainWall = append(plainWall, ms(r.wall))
	}
	for _, r := range rounds {
		wall = append(wall, ms(r.wall))
		stolen += float64(r.stats.Stolen)
		late += float64(r.stats.Late)
		dups += float64(r.stats.Duplicates)
		memo += float64(r.memoHits)
		sims += float64(r.counts["experiment.cells_simulated"])
		replays += float64(r.counts["experiment.cells_replayed"])
	}
	submit := tr.keyed("leader.submit")
	sim := tr.keyed("worker.run")
	var overhead []float64
	for k, s := range submit {
		if w, ok := sim[k]; ok {
			overhead = append(overhead, s-w)
		}
	}
	claims := float64(len(tr.durations("http/queue/claim")))
	empty := tr.count("fleet.empty_claims")
	submitTail, _ := tailOf(tr.durations("leader.submit"))
	totalWall := 0.0
	for _, w := range wall {
		totalWall += w
	}
	l := map[string]metric{
		"bench.trace_overhead_frac":  {median(wall)/median(plainWall) - 1, "ratio"},
		"experiment.cells_simulated": {sims / n, "count"},
		"experiment.cells_replayed":  {replays / n, "count"},
		"experiment.slot_idle_frac":  {1 - tr.total("worker.run")/(execWorkers*totalWall), "ratio"},
		"report.render_ms":           {tr.total("report.render") / n, "ms"},
		"fleet.submit_ms_p50":        {median(tr.durations("leader.submit")), "ms"},
		"fleet.submit_ms_tail":       {submitTail, "ms"},
		"fleet.dispatch_overhead_ms": {median(overhead), "ms"},
		"fleet.claim_ms":             {median(tr.durations("http/queue/claim")), "ms"},
		"fleet.complete_ms":          {median(tr.durations("http/queue/complete")), "ms"},
		"fleet.claims":               {(claims - empty) / n, "count"},
		"fleet.empty_claim_ratio":    {frac(int(empty), int(claims)), "ratio"},
		"fleet.idle_hint_ms":         {tr.count("fleet.idle_hint_ms") / n, "ms"},
		"fleet.memo_hits":            {memo, "count"},
		"fleet.stolen":               {stolen, "count"},
		"fleet.late":                 {late, "count"},
		"fleet.duplicates":           {dups, "count"},
	}
	for _, name := range attack.Names() {
		l["attack."+name+".ms_per_cell"] = metric{median(tr.durations("attack." + name)), "ms"}
	}
	return l
}
