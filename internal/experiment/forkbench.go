package experiment

import (
	"reflect"
	"time"

	"xorbp/internal/cpu"
	"xorbp/internal/workload"
)

// ForkBench is the wall-clock demonstration of the prefix-sharing fork
// path, recorded in BENCH_*.json: an eight-member re-key divergence
// family resolved through the fork chain versus the same cells each
// simulated cold, both measured against the cost of one cold run.
type ForkBench struct {
	// Periods are the divergence cycles, derived from BaseCycles so the
	// ladder scales with the measurement budget.
	Periods []uint64 `json:"periods"`
	// BaseCycles is the total cycle count of the family's shared-prefix
	// run (no re-key) at this scale — deterministic for a given seed.
	BaseCycles uint64 `json:"base_cycles"`
	// SingleMs is one cold run's wall time; StraightMs covers all eight
	// cells cold; ForkedMs covers the same eight through the fork chain.
	// Each of the two is the fastest of forkBenchRounds interleaved
	// rounds.
	SingleMs   float64 `json:"single_ms"`
	StraightMs float64 `json:"straight_ms"`
	ForkedMs   float64 `json:"forked_ms"`
	// RatioVsSingle is ForkedMs over the average cold run (StraightMs/8)
	// — the committed gate asserts the whole forked sweep costs less
	// than MaxForkRatio cold runs. The eight-run average is the stable
	// estimate of one run's cost; the one-shot SingleMs is informational.
	RatioVsSingle float64 `json:"ratio_vs_single"`
	// SpeedupVsStraight is StraightMs/ForkedMs.
	SpeedupVsStraight float64 `json:"speedup_vs_straight"`
	// Match records that the forked results were byte-identical to the
	// straight runs' — a correctness gate, not a performance one.
	Match bool `json:"match"`
}

// MaxForkRatio is the regression gate on ForkBench.RatioVsSingle: the
// eight-period sweep must cost less than this many single cold runs.
// The periods sit in the run's last fifth, so the chain simulates about
// one full prefix plus ~1.1 runs' worth of tails; 2.5 leaves room for
// snapshot/restore overhead while still failing if forking degrades to
// anywhere near the 8x cost of straight re-simulation.
const MaxForkRatio = 2.5

// forkBenchRounds is how many straight/forked rounds MeasureForkBench
// interleaves. Each side reports its fastest round, so load on a shared
// machine skews the ratio only if it hits every round of one side.
const forkBenchRounds = 3

// MeasureForkBench times the fork-vs-straight comparison at the given
// scale. Both sides run serially on the calling goroutine, so the ratio
// is hardware-neutral the same way the engine speedups are. The sides
// alternate which goes first from round to round, and every forked
// round starts from an empty snapshot store, so the rounds repeat the
// same work.
func MeasureForkBench(scale Scale) ForkBench {
	mk := func(period uint64) runSpec {
		s := singleSpec(rekeyOpts(period), workload.SingleCorePairs()[0], 300_000)
		s.scale = scale
		return s
	}

	// One cold run of the family's shared prefix (no re-key): its wall
	// time is the sweep's unit of cost and its cycle count anchors the
	// divergence ladder.
	start := time.Now() //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
	probe := newSim(mk(0))
	probe.advance(cpu.NoCycleLimit)
	probe.result()
	singleMs := ms(time.Since(start)) //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
	base := probe.c.Cycles()

	// Eight divergence cycles clustered in the run's last fifth, where
	// prefix sharing dominates: 80%..94% of the cold run in 2% steps.
	periods := make([]uint64, 8)
	for i := range periods {
		periods[i] = base * uint64(80+2*i) / 100
	}

	prefixDK := specToWire(prefixSpec(mk(periods[0]))).Key()
	straightRound := func() ([]RunResult, float64) {
		res := make([]RunResult, len(periods))
		start := time.Now() //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
		for i, p := range periods {
			res[i] = run(mk(p))
		}
		return res, ms(time.Since(start)) //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
	}
	forkedRound := func() ([]RunResult, float64) {
		snaps := NewSnapStore(nil)
		res := make([]RunResult, len(periods))
		var prior []uint64
		start := time.Now() //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
		for i, p := range periods {
			res[i] = runForked(mk(p), prefixDK, prior, snaps)
			prior = append(prior, p)
		}
		return res, ms(time.Since(start)) //bpvet:allow wall-clock benchmark harness; durations never reach results or keys
	}

	var straightMs, forkedMs float64
	match := true
	for round := 0; round < forkBenchRounds; round++ {
		var straight, forked []RunResult
		var sMs, fMs float64
		if round%2 == 0 {
			straight, sMs = straightRound()
			forked, fMs = forkedRound()
		} else {
			forked, fMs = forkedRound()
			straight, sMs = straightRound()
		}
		if round == 0 || sMs < straightMs {
			straightMs = sMs
		}
		if round == 0 || fMs < forkedMs {
			forkedMs = fMs
		}
		match = match && reflect.DeepEqual(forked, straight)
	}

	return ForkBench{
		Periods:           periods,
		BaseCycles:        base,
		SingleMs:          singleMs,
		StraightMs:        straightMs,
		ForkedMs:          forkedMs,
		RatioVsSingle:     forkedMs / (straightMs / float64(len(periods))),
		SpeedupVsStraight: straightMs / forkedMs,
		Match:             match,
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
