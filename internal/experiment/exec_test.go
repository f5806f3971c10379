package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xorbp/internal/attack"
	"xorbp/internal/core"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

// TestParallelMatchesSerial is the engine's core guarantee: the same
// figure rendered through a 1-worker executor and a many-worker executor
// must be byte-identical, because every simulation is a pure function of
// its spec.
func TestParallelMatchesSerial(t *testing.T) {
	scale := microScale()
	serial := NewSessionWith(scale, NewExecutor(1)).Figure1().Render()
	parallel := NewSessionWith(scale, NewExecutor(8)).Figure1().Render()
	if serial != parallel {
		t.Fatalf("parallel Figure 1 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestExecutorDedupsWithinBatch: a spec submitted several times in one
// batch simulates exactly once, and every copy gets the same result.
func TestExecutorDedupsWithinBatch(t *testing.T) {
	e := NewExecutor(4)
	spec := singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000)
	spec.scale = tinyScale()
	res := e.RunBatch([]runSpec{spec, spec, spec})
	if got := e.Runs(); got != 1 {
		t.Fatalf("executor simulated %d times, want 1 (within-batch dedup)", got)
	}
	if res[0].Cycles == 0 || res[0].Cycles != res[2].Cycles || res[0].Target != res[2].Target {
		t.Fatalf("duplicate specs returned different results: %+v vs %+v", res[0], res[2])
	}
}

// TestExecutorSharesBaselinesAcrossFigures: Figures 7 and 9 both need the
// single-core baselines for every pair and period. Running Figure 9 after
// Figure 7 on a shared executor must add only Figure 9's mechanism runs —
// the 36 baselines (12 pairs x 3 periods) come from cache.
func TestExecutorSharesBaselinesAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	s := sharedSession() // warm the shared cache too, while we're at it
	s.Figure7()
	after7 := s.Executor().Runs()
	s.Figure9()
	added := s.Executor().Runs() - after7
	// Figure 9 needs 12 pairs x 3 periods x 2 mechanisms = 72 scoped runs;
	// its 36 baselines must all be cache hits from Figure 7.
	if added != 72 {
		t.Fatalf("Figure 9 after Figure 7 simulated %d new runs, want 72 (baselines must be shared)", added)
	}
}

// TestExecutorConcurrentBatchesShareWork: two batches racing on a shared
// executor must simulate an overlapping spec once — whichever batch
// claims it runs it, the other waits on the in-flight marker.
func TestExecutorConcurrentBatchesShareWork(t *testing.T) {
	e := NewExecutor(2)
	spec := singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000)
	spec.scale = microScale()
	results := make([][]RunResult, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = e.RunBatch([]runSpec{spec})
		}()
	}
	wg.Wait()
	if got := e.Runs(); got != 1 {
		t.Fatalf("concurrent batches simulated %d times, want 1", got)
	}
	if results[0][0].Cycles == 0 || results[0][0].Cycles != results[1][0].Cycles {
		t.Fatalf("concurrent batches disagree: %+v vs %+v", results[0][0], results[1][0])
	}
}

// TestRunKeyDistinguishesOptionFields guards the comparable cache key:
// specs differing in any Options field, the timer, or the thread list map
// to distinct keys, while an identical spec maps to the same key.
func TestRunKeyDistinguishesOptionFields(t *testing.T) {
	base := singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000)
	base.scale = tinyScale()

	same := base
	if specKey(same) != specKey(base) {
		t.Fatal("identical specs produced different keys")
	}

	variants := map[string]func(*runSpec){
		"mechanism": func(s *runSpec) { s.opts.Mechanism = core.NoisyXOR },
		"scope":     func(s *runSpec) { s.opts.Scope = core.StructBTB },
		"enhanced":  func(s *runSpec) { s.opts.EnhancedPHT = !s.opts.EnhancedPHT },
		"rotate":    func(s *runSpec) { s.opts.RotateOnPrivilege = !s.opts.RotateOnPrivilege },
		"flushpriv": func(s *runSpec) { s.opts.FlushOnPrivilege = !s.opts.FlushOnPrivilege },
		"codec":     func(s *runSpec) { s.opts.Codec = core.RotXORCodec{} },
		"scrambler": func(s *runSpec) { s.opts.Scrambler = core.FeistelScrambler{} },
		"pred":      func(s *runSpec) { s.predName = "gshare" },
		"timer":     func(s *runSpec) { s.timer = 123_456 },
		"names":     func(s *runSpec) { s.names = []string{"gcc", "mcf"} },
		"seed":      func(s *runSpec) { s.scale.Seed = 99 },
	}
	for name, mutate := range variants {
		v := base
		v.names = append([]string(nil), base.names...)
		mutate(&v)
		if specKey(v) == specKey(base) {
			t.Errorf("variant %q aliases the base key", name)
		}
	}
}

// TestRunKeyNormalizesDefaults: zero-valued Codec/Scrambler/Scope and
// the explicit paper defaults run identically (the controller normalizes
// them), so they must share one cache entry.
func TestRunKeyNormalizesDefaults(t *testing.T) {
	pair := workload.SingleCorePairs()[0]
	implicit := singleSpec(core.OptionsFor(core.NoisyXOR), pair, 300_000) // Scope 0
	explicit := implicit
	explicit.opts.Scope = core.StructAll
	explicit.opts.Codec = core.XORCodec{}
	explicit.opts.Scrambler = core.XORScrambler{}
	nilIfaces := implicit
	nilIfaces.opts.Codec = nil
	nilIfaces.opts.Scrambler = nil
	if specKey(implicit) != specKey(explicit) || specKey(implicit) != specKey(nilIfaces) {
		t.Fatal("semantically identical option spellings map to different cache keys")
	}
}

// TestExecutorProgress: the progress writer gets one serialized line per
// executed simulation, none for cache hits.
func TestExecutorProgress(t *testing.T) {
	e := NewExecutor(2)
	var buf bytes.Buffer
	e.SetProgress(&buf)
	s := NewSessionWith(tinyScale(), e)
	pair := workload.SingleCorePairs()[0]
	s.run(singleSpec(baselineOpts(), pair, 300_000))
	s.run(singleSpec(baselineOpts(), pair, 300_000)) // cache hit: no line
	s.run(singleSpec(figure1CF(), pair, 300_000))
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Fatalf("progress emitted %d lines, want 2:\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), "CompleteFlush") {
		t.Fatalf("progress lines missing mechanism label:\n%s", buf.String())
	}
}

// TestSpecLabel locks the progress-line format: every keyed dimension
// of the spec appears, in a stable order, so grep-driven sweep scripts
// can rely on it.
func TestSpecLabel(t *testing.T) {
	spec := singleSpec(figure1CF(), workload.SingleCorePairs()[0], 300_000)
	got := specLabel(spec)
	want := "CompleteFlush scope=BP pred=tage cfg=fpga-boom timer=300000 threads=gcc+calculix"
	if got != want {
		t.Fatalf("specLabel:\n got %q\nwant %q", got, want)
	}
}

// TestSpecWireRoundTrip: a spec survives the canonical wire encoding —
// specToWire -> Encode -> DecodeSpec -> specFromWire — with its cache
// identity intact. This is what makes a remote worker's results
// interchangeable with local ones.
func TestSpecWireRoundTrip(t *testing.T) {
	specs := []runSpec{
		singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000),
		singleSpec(figure1CF(), workload.SingleCorePairs()[1], 200_000),
		singleSpec(scopedOpts(core.NoisyXOR, core.StructBTB), workload.SingleCorePairs()[2], 100_000),
	}
	for _, spec := range specs {
		spec.scale = microScale()
		w := specToWire(spec)
		enc := w.Encode()
		dec, err := wire.DecodeSpec(enc)
		if err != nil {
			t.Fatal(err)
		}
		back, err := specFromWire(dec)
		if err != nil {
			t.Fatal(err)
		}
		if specKey(back) != specKey(spec) {
			t.Fatalf("wire round-trip changed the cache identity of %s", specLabel(spec))
		}
		if specToWire(back).Key() != w.Key() {
			t.Fatalf("wire round-trip changed the wire key of %s", specLabel(spec))
		}
	}
}

// TestLocalBackendMatchesDirectRun: the backend seam adds a wire
// round-trip in front of run(); the result must be identical — the
// determinism guarantee every backend inherits.
func TestLocalBackendMatchesDirectRun(t *testing.T) {
	spec := singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000)
	spec.scale = microScale()
	direct := run(spec)
	viaBackend, err := LocalBackend{}.Run(context.Background(), specToWire(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaBackend) {
		t.Fatalf("backend result differs from direct run:\n%+v\nvs\n%+v", direct, viaBackend)
	}
}

// TestSpecFromWireRejectsGarbage: every name field is validated — a
// worker must refuse what it cannot faithfully execute.
func TestSpecFromWireRejectsGarbage(t *testing.T) {
	good := specToWire(withScale(singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000), microScale()))
	breakers := map[string]func(*wire.Spec){
		"codec":     func(w *wire.Spec) { w.Codec = "rot13" },
		"scrambler": func(w *wire.Spec) { w.Scrambler = "enigma" },
		"pred":      func(w *wire.Spec) { w.Pred = "oracle" },
		"kind":      func(w *wire.Spec) { w.Kind = "benchmark" },
		"workload":  func(w *wire.Spec) { w.Threads = []string{"doom"} },
		"threads":   func(w *wire.Spec) { w.Threads = nil },
		"scale":     func(w *wire.Spec) { w.Scale.MeasureInstr = 0 },
	}
	for name, mutate := range breakers {
		w := good
		w.Threads = append([]string(nil), good.Threads...)
		mutate(&w)
		if _, err := specFromWire(w); err == nil {
			t.Errorf("specFromWire accepted a spec with a bad %s", name)
		}
	}
	if _, err := specFromWire(good); err != nil {
		t.Fatalf("specFromWire rejected a valid spec: %v", err)
	}
}

// withScale returns the spec with its scale set (test helper).
func withScale(s runSpec, sc Scale) runSpec {
	s.scale = sc
	return s
}

// TestExecutorShardsPartitionExactly: two executors sharded 0/2 and 1/2
// over one store directory split the grid without overlap or gaps, and
// an unsharded executor afterwards replays the union without
// simulating.
func TestExecutorShardsPartitionExactly(t *testing.T) {
	dir := t.TempDir()
	specs := testSpecs(microScale())

	var simulated uint64
	for i := 0; i < 2; i++ {
		e := storedExec(t, dir, 2)
		e.SetShard(i, 2)
		e.RunBatch(specs)
		if got := int(e.Runs()) + e.Skipped() + e.Replays(); got != len(specs) {
			t.Fatalf("shard %d resolved %d cells (runs+skipped+replays), want %d", i, got, len(specs))
		}
		simulated += e.Runs()
	}
	if simulated != uint64(len(specs)) {
		t.Fatalf("shards simulated %d cells total, want exactly %d (no overlap, no gaps)",
			simulated, len(specs))
	}

	merge := storedExec(t, dir, 2)
	res := merge.RunBatch(specs)
	if merge.Runs() != 0 {
		t.Fatalf("merge run simulated %d cells, want 0", merge.Runs())
	}
	for i, r := range res {
		if r.Cycles == 0 {
			t.Fatalf("merged result %d is zero — a shard dropped it", i)
		}
	}
}

// TestExecutorShardSkipsAreZero: without a shared store, a sharded
// executor leaves non-owned cells zero-valued and counts them skipped.
func TestExecutorShardSkipsAreZero(t *testing.T) {
	specs := testSpecs(microScale())
	e := NewExecutor(2)
	e.SetShard(0, 2)
	res := e.RunBatch(specs)
	if e.Skipped() == 0 && e.Runs() == uint64(len(specs)) {
		t.Skip("shard 0/2 happens to own every test spec; partition asserted elsewhere")
	}
	zeros := 0
	for _, r := range res {
		if r.Cycles == 0 {
			zeros++
		}
	}
	if zeros != e.Skipped() {
		t.Fatalf("%d zero results for %d skipped cells", zeros, e.Skipped())
	}
}

// echoBackend answers every spec with a fixed non-zero result without
// simulating: tests of key bookkeeping need resolved cells, not results.
type echoBackend struct{}

func (echoBackend) Run(context.Context, wire.Spec) (RunResult, error) {
	return RunResult{Cycles: 1}, nil
}

// keySpecs is a grid of distinct specs large enough for both halves of
// a two-way shard to own cells.
func keySpecs() []runSpec {
	var specs []runSpec
	for _, pair := range workload.SingleCorePairs() {
		for _, opts := range []core.Options{baselineOpts(), figure1CF()} {
			specs = append(specs, withScale(singleSpec(opts, pair, 300_000), microScale()))
		}
	}
	return specs
}

// recordedKeys runs specs through a fresh echo-backed executor, shard
// i of n, planned by planner unless it is nil, and returns the sorted
// RunRecord keys of the cells it resolved.
func recordedKeys(t *testing.T, specs []runSpec, planner *Executor, i, n int) []string {
	t.Helper()
	e := NewExecutorWith(1, echoBackend{})
	if n > 1 {
		e.SetShard(i, n)
	}
	var keys []string
	e.SetRecord(func(rec RunRecord) { keys = append(keys, rec.Key) })
	if planner != nil {
		e.Plan(planner)
	}
	e.RunBatch(specs)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestPlannedRecordKeysMatchPlanner: an executor planned from a planner
// reuses the planner's wire keys, so its RunRecord keys are exactly the
// planner's PlannedKeys — and equal to the keys an unplanned executor
// computes itself.
func TestPlannedRecordKeysMatchPlanner(t *testing.T) {
	specs := keySpecs()
	planner := NewPlanner()
	planner.RunBatch(specs)
	want := planner.PlannedKeys()
	if len(want) != len(specs) {
		t.Fatalf("planner holds %d keys for %d distinct specs", len(want), len(specs))
	}
	if got := recordedKeys(t, specs, planner, 0, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("planned executor recorded keys %v, want the planner's %v", got, want)
	}
	if got := recordedKeys(t, specs, nil, 0, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("unplanned executor recorded keys %v, want the planner's %v", got, want)
	}
}

// TestShardPartitionIndependentOfPlan: SetShard assigns every cell to
// the same shard whether the executor hashed the key itself or reused
// the planner's, and the two shards partition the grid.
func TestShardPartitionIndependentOfPlan(t *testing.T) {
	specs := keySpecs()
	planner := NewPlanner()
	planner.RunBatch(specs)
	var union []string
	for i := 0; i < 2; i++ {
		planned := recordedKeys(t, specs, planner, i, 2)
		unplanned := recordedKeys(t, specs, nil, i, 2)
		if !reflect.DeepEqual(planned, unplanned) {
			t.Fatalf("shard %d/2 owns %v with a plan, %v without", i, planned, unplanned)
		}
		if len(planned) == 0 {
			t.Fatalf("shard %d/2 owns none of %d cells", i, len(specs))
		}
		union = append(union, planned...)
	}
	sort.Strings(union)
	if want := planner.PlannedKeys(); !reflect.DeepEqual(union, want) {
		t.Fatalf("shards own %v, want exactly the grid %v", union, want)
	}
}

// failingBackend rejects every spec.
type failingBackend struct{}

func (failingBackend) Run(context.Context, wire.Spec) (RunResult, error) {
	return RunResult{}, errors.New("fleet unreachable")
}

// TestExecutorBackendErrorPoisons: a backend failure must not hang the
// batch (in-flight claims are released) and must poison the executor so
// later batches short-circuit instead of re-dialing a dead fleet.
func TestExecutorBackendErrorPoisons(t *testing.T) {
	e := NewExecutorWith(2, failingBackend{})
	specs := testSpecs(microScale())
	done := make(chan []RunResult, 1)
	go func() { done <- e.RunBatch(specs) }()
	select {
	case res := <-done:
		for i, r := range res {
			if r.Cycles != 0 {
				t.Fatalf("failed batch returned a non-zero result at %d", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunBatch hung after backend failure")
	}
	if e.Err() == nil {
		t.Fatal("backend failure did not poison the executor")
	}
	if e.RunBatch(specs[:1]); e.Runs() != 0 {
		t.Fatal("poisoned executor kept dispatching")
	}
}

// TestBatchResultBeforeExecPanics: reading a pending handle before the
// batch executes is a planning bug and must fail loudly.
func TestBatchResultBeforeExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pending.result before exec did not panic")
		}
	}()
	s := NewSession(tinyScale())
	b := s.batch()
	p := b.add(singleSpec(baselineOpts(), workload.SingleCorePairs()[0], 300_000))
	p.result()
}

// TestAttackSpecFromWireRejectsGarbage: attack-kind validation — a
// worker must refuse what it cannot faithfully execute, including
// single-only attacks requested on SMT (the runner would silently
// measure the single-threaded variant under an SMT cache key).
func TestAttackSpecFromWireRejectsGarbage(t *testing.T) {
	good := specToWire(attackRunSpec(AttackJob{
		Attack:   "reference",
		Opts:     core.OptionsFor(core.XOR),
		Scenario: attack.SingleThreaded,
		Trials:   100,
		Seed:     1,
	}))
	if _, err := specFromWire(good); err != nil {
		t.Fatalf("specFromWire rejected a valid attack spec: %v", err)
	}
	breakers := map[string]func(*wire.Spec){
		"attack name":        func(w *wire.Spec) { w.Attack.Name = "rowhammer" },
		"scenario":           func(w *wire.Spec) { w.Attack.Scenario = "quad" },
		"single-only on SMT": func(w *wire.Spec) { w.Attack.Scenario = "SMT" },
		"trials":             func(w *wire.Spec) { w.Attack.Trials = 0 },
		"pred":               func(w *wire.Spec) { w.Pred = "oracle" },
		"no payload":         func(w *wire.Spec) { w.Attack = nil },
	}
	for name, mutate := range breakers {
		w := good
		if w.Attack != nil {
			cp := *good.Attack
			w.Attack = &cp
		}
		mutate(&w)
		if _, err := specFromWire(w); err == nil {
			t.Errorf("specFromWire accepted an attack spec with a bad %s", name)
		}
	}
}

// TestRunAttackBatchDeduplicates: identical attack jobs resolve once.
func TestRunAttackBatchDeduplicates(t *testing.T) {
	e := NewExecutor(2)
	job := AttackJob{Attack: "btb_training", Opts: core.OptionsFor(core.Baseline),
		Scenario: attack.SingleThreaded, Trials: 50, Seed: 9}
	outs := e.RunAttackBatch([]AttackJob{job, job, job})
	if e.Runs() != 1 {
		t.Fatalf("3 identical jobs executed %d times, want 1", e.Runs())
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("identical jobs disagree: %+v", outs)
	}
	if outs[0].Trials != 50 {
		t.Fatalf("outcome = %+v, want 50 counted trials", outs[0])
	}
}
