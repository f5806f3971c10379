// Command perfbench is the repository benchmark: it measures the host
// cost of regenerating the paper's evaluation (eval_cold), of
// re-rendering it from a warm run cache (eval_warm), and of resolving
// the security sweep through a loopback pull fleet (attack_pull).
//
//	bash perfbench/run.sh --workload eval_cold --seed 3 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same workload with spans around the public calls of each
// layer (and, on eval_cold, the layer harness) and prints the per-layer
// metrics. The last line of standard output is always one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every rendered table is
// checked against the SHA-256 digests in digests.json, and deterministic
// counts against the counts recorded there. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"xorbp/internal/attack"
)

// execWorkers is the executor width of the evaluation workloads and the
// worker count of the pull fleet: the benchmark keeps at most two busy
// threads, the CPU count it was calibrated on.
const execWorkers = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured.
type outcome struct {
	attempted int
	failed    int
	// gateErr is set when a deterministic count differed from its
	// recorded value, or the layer harness did not reconcile: the run
	// fails loudly.
	gateErr error
	// ops are the per-op host times in ms (a cell, or a warm pass).
	ops []float64
	// cells resolved in the measured passes, and the passes' time: wall
	// time, or process CPU time on eval_warm.
	cells int
	took  time.Duration
	// rates are the cells resolved per second of each measured pass or
	// round; cells_per_s is their median.
	rates []float64
	// setup holds the repeated set-up times in seconds.
	setup []float64
	// layers are the per-layer metrics (traced runs only).
	layers map[string]metric
}

// env carries what every workload needs.
type env struct {
	seed    uint64
	budget  time.Duration
	scratch string
	ref     *reference
}

func main() {
	workload := flag.String("workload", "", "eval_cold, eval_warm or attack_pull")
	seed := flag.Uint64("seed", 1, "workload seed (mapped onto the recorded seeds)")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	root := flag.String("root", ".", "repository root (the checkout)")
	record := flag.Bool("record-digests", false, "recompute digests.json for every recorded seed and exit")
	flag.Parse()

	if err := run(*root, *workload, *seed, *seconds, *trace, *record); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its result line. A failed
// gate (an exact count, the harness reconciliation) still prints the
// result, marked incorrect, then fails the run.
func run(root, workload string, seed uint64, seconds, trace int, record bool) error {
	refPath := filepath.Join(root, "perfbench", "digests.json")
	scratchBase := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(scratchBase, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	if record {
		return recordReference(refPath, scratch)
	}
	ref, err := loadReference(refPath)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	e := env{seed: seed, budget: time.Duration(seconds) * time.Second, scratch: scratch, ref: ref}
	traced := trace == 1

	var o outcome
	switch workload {
	case "eval_cold":
		o, err = evalCold(e, traced)
	case "eval_warm":
		o, err = evalWarm(e, traced)
	case "attack_pull":
		o, err = attackPull(e, traced)
	default:
		err = fmt.Errorf("unknown --workload %q (want eval_cold, eval_warm or attack_pull)", workload)
	}
	if err != nil {
		return err
	}

	rep := result{
		Correct:   o.failed == 0 && o.gateErr == nil && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	tail, tailPct := tailOf(o.ops)
	fmt.Printf("perfbench %s seed=%d: %d ops, %d cells in %.3fs; op_ms_tail is p%g of %d ops\n",
		workload, seed, len(o.ops), o.cells, o.took.Seconds(), tailPct, len(o.ops))
	if traced {
		o.layers["bench.op_tail_pct"] = metric{tailPct, "%"}
		o.layers["bench.op_samples"] = metric{float64(len(o.ops)), "count"}
		o.layers["bench.failed_frac"] = metric{frac(o.failed, o.attempted), "ratio"}
		if rep.Metrics, err = perLayer(o.layers); err != nil {
			return err
		}
	} else {
		rep.Metrics = map[string]metric{
			"cells_per_s": {median(o.rates), "cells/s"},
			"op_ms_p50":   {median(o.ops), "ms"},
			"op_ms_tail":  {tail, "ms"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
			"setup_s":     {median(o.setup), "s"},
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if o.gateErr != nil {
		return fmt.Errorf("gate failed: %w", o.gateErr)
	}
	return nil
}

// layerUnits lists every per-layer metric with its unit. A traced run
// prints all of them; a layer its workload does not exercise reads 0.
var layerUnits = map[string]string{
	"workload.ns_per_event":               "ns",
	"cpu.single.self_ns_per_kinst":        "ns/kinst",
	"cpu.smt.self_ns_per_kinst":           "ns/kinst",
	"gshare.ns_per_branch":                "ns",
	"perceptron.ns_per_branch":            "ns",
	"tournament.ns_per_branch":            "ns",
	"tage.ns_per_branch":                  "ns",
	"tagescl.ns_per_branch":               "ns",
	"btb.ns_per_branch":                   "ns",
	"core.encode_ns_per_branch.xor":       "ns",
	"core.encode_ns_per_branch.noisy_xor": "ns",
	"experiment.cell_setup_us":            "us",
	"snap.restore_us":                     "us",
	"snap.bytes":                          "bytes",
	"cpu.kinst":                           "count",
	"predictor.cond_branches":             "count",
	"core.flushes":                        "count",
	"core.rotations":                      "count",
	"core.ctx_switches":                   "count",
	"core.priv_switches":                  "count",
	"experiment.cells_simulated":          "count",
	"experiment.cells_replayed":           "count",
	"experiment.snapshots":                "count",
	"experiment.slot_idle_frac":           "ratio",
	"experiment.sim_minst_per_s":          "Minst/s",
	"experiment.plan_ms":                  "ms",
	"runcache.open_ms":                    "ms",
	"runcache.get_us":                     "us",
	"runcache.put_us":                     "us",
	"runcache.hit_ratio":                  "ratio",
	"runcache.entries":                    "count",
	"runcache.quarantined":                "count",
	"wire.spec_key_us":                    "us",
	"wire.result_decode_us":               "us",
	"report.render_ms":                    "ms",
	"fleet.submit_ms_p50":                 "ms",
	"fleet.submit_ms_tail":                "ms",
	"fleet.dispatch_overhead_ms":          "ms",
	"fleet.claim_ms":                      "ms",
	"fleet.complete_ms":                   "ms",
	"fleet.claims":                        "count",
	"fleet.empty_claim_ratio":             "ratio",
	"fleet.idle_hint_ms":                  "ms",
	"fleet.memo_hits":                     "count",
	"fleet.stolen":                        "count",
	"fleet.late":                          "count",
	"fleet.duplicates":                    "count",
	"bench.trace_overhead_frac":           "ratio",
	"bench.unattributed_frac":             "ratio",
	"bench.failed_frac":                   "ratio",
	"bench.op_tail_pct":                   "%",
	"bench.op_samples":                    "count",
}

// perLayer completes a traced run's metrics to the full per-layer set.
func perLayer(got map[string]metric) (map[string]metric, error) {
	units := make(map[string]string, len(layerUnits))
	for k, u := range layerUnits {
		units[k] = u
	}
	for _, name := range attack.Names() {
		units["attack."+name+".ms_per_cell"] = "ms"
	}
	out := make(map[string]metric, len(units))
	for k, u := range units {
		out[k] = metric{0, u}
	}
	for k, m := range got {
		u, ok := units[k]
		if !ok || u != m.Unit {
			return nil, fmt.Errorf("per-layer metric %s (%s) is not in the per-layer list", k, m.Unit)
		}
		out[k] = m
	}
	return out, nil
}

// addPass accounts one measured pass (or round) of cells that took
// wall time (CPU time on eval_warm).
func (o *outcome) addPass(cells int, took time.Duration) {
	o.cells += cells
	o.took += took
	o.rates = append(o.rates, float64(cells)/took.Seconds())
}

// morePasses reports whether another whole pass fits the budget: the
// run stops once the next pass would end more than half a pass past it,
// so a run measures close to its budget in whole passes.
func morePasses(elapsed, last, budget time.Duration) bool {
	return elapsed+last/2 < budget
}

// percentile returns the nearest-rank p-th percentile (0 when empty).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 98, 95, 90, 75, 50}

// tailOf returns the highest candidate percentile that has at least ten
// samples beyond it, with that percentile (the median when there are
// fewer than twenty samples).
func tailOf(vs []float64) (float64, float64) {
	n := float64(len(vs))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10 {
			return percentile(vs, p), p
		}
	}
	return percentile(vs, 50), 50
}

// cpuTime is the process's CPU time so far, user plus system, over all
// threads. On a VM it leaves out the time stolen from the vCPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(vs []float64) float64 { return percentile(vs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsSince(t time.Time) float64 { return float64(time.Since(t)) }

func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
