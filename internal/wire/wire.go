// Package wire defines the versioned wire schema of the experiment
// engine: the canonical, exported JSON forms of a simulation spec and
// its result. It is the contract shared by every execution backend —
// the in-process pool, the bpserve work-server protocol, and the
// persistent run cache, whose keys are derived from the canonical spec
// encoding. One schema everywhere means a result computed by any
// process (local worker, remote daemon, earlier invocation) is
// interchangeable with every other.
//
// The encoding is deterministic by construction: fixed struct field
// order, no maps, interface-valued options carried by their registered
// names. Golden tests (testdata/) lock the byte-level form, so schema
// drift fails loudly instead of silently aliasing or orphaning cache
// entries.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/runcache"
)

// Scale sets simulation sizes. The paper runs billions of instructions
// on real SPEC; the harness scales budgets and timer periods together so
// the ratios that drive every result (warm-up cost per isolation event
// vs cycles between events) are preserved. See EXPERIMENTS.md.
type Scale struct {
	// WarmupInstr and MeasureInstr are per-run instruction budgets for
	// single-core runs.
	WarmupInstr  uint64 `json:"warmup_instr"`
	MeasureInstr uint64 `json:"measure_instr"`
	// SMTWarmupInstr and SMTMeasureInstr are the (larger) budgets for SMT
	// runs: isolation events arrive per Mcycle, and an SMT window must
	// contain enough of them for a stable flush-cost estimate.
	SMTWarmupInstr  uint64 `json:"smt_warmup_instr"`
	SMTMeasureInstr uint64 `json:"smt_measure_instr"`
	// TimerPeriods are the scaled flush/switch periods standing in for
	// the paper's 4M/8M/12M cycles (labels keep the paper's names).
	TimerPeriods [3]uint64 `json:"timer_periods"`
	// TimerLabels are the paper's names for the three periods.
	TimerLabels [3]string `json:"timer_labels"`
	// Seed diversifies the whole experiment deterministically.
	Seed uint64 `json:"seed"`
}

// KindAttack marks a Spec as an attack job. The zero Kind ("") is a
// performance run — the schema's original, and still most common, kind.
const KindAttack = "attack"

// Spec is the canonical wire form of one simulation: everything a
// worker needs to reproduce the run bit-for-bit. The Codec and
// Scrambler interfaces of core.Options are carried by their registered
// names (core.CodecByName / core.ScramblerByName), never by value.
//
// A Spec is one of two kinds. A performance run (Kind "") measures a
// workload's execution under a mechanism: Cfg, Timer, Threads and Scale
// are live, Attack is nil. An attack job (Kind "attack") measures a
// PoC's success against a mechanism: Attack is live, and the
// microarchitecture fields are zero (the attack harness drives the
// predictor structures directly). Both kinds share Opts, Codec,
// Scrambler and Pred — the mechanism and predictor under test.
type Spec struct {
	// Kind discriminates the run kinds: "" (performance) or KindAttack.
	Kind string `json:"kind,omitempty"`
	// Opts is the mechanism configuration with the interface fields
	// excluded from the encoding (their identities are Codec/Scrambler
	// below).
	Opts core.Options `json:"opts"`
	// Codec and Scrambler are the Name() values of the normalized
	// options' interface fields.
	Codec     string `json:"codec"`
	Scrambler string `json:"scrambler"`
	// Pred names the direction predictor (experiment.NewDirPredictor).
	// For attack jobs, "" selects the PoC's default bimodal table.
	Pred string `json:"pred"`
	// Cfg is the core microarchitecture.
	Cfg cpu.Config `json:"cfg"`
	// Timer is the scheduler timer period in cycles.
	Timer uint64 `json:"timer"`
	// Threads are the software-thread workload names; the first is the
	// measurement target.
	Threads []string `json:"threads"`
	// Scale is the simulation size.
	Scale Scale `json:"scale"`
	// Attack is the attack-job payload (Kind == KindAttack only).
	Attack *AttackSpec `json:"attack,omitempty"`
}

// AttackSpec is the attack-specific half of an attack job: which
// registered PoC to run, on which core arrangement, and how big.
type AttackSpec struct {
	// Name is the registered attack (attack.ByName).
	Name string `json:"name"`
	// Scenario is the core arrangement by wire name: "single" or "SMT"
	// (attack.ScenarioByName).
	Scenario string `json:"scenario"`
	// RekeyPeriod is the isolation controller's timer period in
	// scheduling events; 0 is the paper's event-driven design (see
	// attack.Env).
	RekeyPeriod uint64 `json:"rekey_period"`
	// Trials sizes the measurement (iterations, secret bits — the
	// attack's outer loop).
	Trials int `json:"trials"`
	// Attempts sizes the inner loop of the attacks that have one
	// (pht_training, pht_steering); 0 otherwise.
	Attempts int `json:"attempts"`
	// Seed diversifies the measurement deterministically.
	Seed uint64 `json:"seed"`
}

// Result is one simulation's measurement window — the engine's
// RunResult, promoted to the wire schema. For attack jobs the
// performance fields are zero and Attack carries the counted outcome.
type Result struct {
	Cycles       uint64            `json:"cycles"`
	Target       cpu.ThreadStats   `json:"target"`
	Others       []cpu.ThreadStats `json:"others"`
	PrivSwitches uint64            `json:"priv_switches"`
	CtxSwitches  uint64            `json:"ctx_switches"`
	BTBHitRate   float64           `json:"btb_hit_rate"`
	// Attack is the attack-job outcome (attack-kind specs only).
	Attack *AttackResult `json:"attack,omitempty"`
}

// AttackResult is an attack job's counted measurement. Counts (not a
// rate) travel on the wire so independent seed batches of one logical
// cell merge exactly by integer addition.
type AttackResult struct {
	Successes int `json:"successes"`
	Trials    int `json:"trials"`
}

// Rate returns Successes/Trials (0 when empty).
func (a AttackResult) Rate() float64 {
	if a.Trials == 0 {
		return 0
	}
	return float64(a.Successes) / float64(a.Trials)
}

// PrivPerMcycle returns privilege switches per million cycles.
func (r Result) PrivPerMcycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.PrivSwitches) / float64(r.Cycles) * 1e6
}

// CtxPerMcycle returns context switches per million cycles.
func (r Result) CtxPerMcycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.CtxSwitches) / float64(r.Cycles) * 1e6
}

// schemaEpoch distinguishes encoding generations that a type signature
// cannot: bump it when simulation semantics change in a way that makes
// previously stored results stale (e.g. a scheduler-model fix) without
// any key or result field changing shape.
//
// Epoch 2: spec/result promoted to this package's canonical snake_case
// wire form (PR 3); epoch-1 entries used the internal persistedKey
// encoding.
//
// Epoch 3: the schema became a union of run kinds — attack jobs joined
// performance runs (Spec.Kind/Attack, Result.Attack). The type-signature
// component changes too, but the epoch bump makes the supersession
// explicit: epoch-2 cache directories are stale and GC removes them.
const schemaEpoch = 3

// SchemaVersion identifies the wire encoding (and therefore the
// persistent run cache's encoding). It embeds a recursive signature of
// the Spec and Result types, so adding, removing, renaming or retyping
// any field reachable from them produces a new version — stale entries
// and mismatched peers are rejected, never aliased.
func SchemaVersion() string { return schemaVersion }

// schemaVersion is computed once; the types are static, so the
// signature cannot change within a process.
var schemaVersion = fmt.Sprintf("xorbp-run/epoch%d/%s->%s", schemaEpoch,
	typeSig(reflect.TypeOf(Spec{}), nil),
	typeSig(reflect.TypeOf(Result{}), nil))

// typeSig renders a type's full structure: struct fields recurse, so a
// change anywhere in the spec or result type tree changes the signature.
func typeSig(t reflect.Type, seen map[reflect.Type]bool) string {
	if seen == nil {
		seen = make(map[reflect.Type]bool)
	}
	switch t.Kind() {
	case reflect.Struct:
		if seen[t] {
			return t.String()
		}
		seen[t] = true
		var b strings.Builder
		b.WriteString(t.String())
		b.WriteByte('{')
		for i := 0; i < t.NumField(); i++ {
			if i > 0 {
				b.WriteByte(';')
			}
			f := t.Field(i)
			b.WriteString(f.Name)
			b.WriteByte(':')
			b.WriteString(typeSig(f.Type, seen))
		}
		b.WriteByte('}')
		return b.String()
	case reflect.Slice:
		return "[]" + typeSig(t.Elem(), seen)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), typeSig(t.Elem(), seen))
	case reflect.Pointer:
		return "*" + typeSig(t.Elem(), seen)
	case reflect.Map:
		return "map[" + typeSig(t.Key(), seen) + "]" + typeSig(t.Elem(), seen)
	default:
		// Basic kinds and interfaces: the name is the identity (interface
		// implementations are keyed separately, by registered name).
		return t.String()
	}
}

// Encode renders the canonical byte form of the spec: single-line JSON
// with fixed field order. Two equal Specs always encode to identical
// bytes, so the encoding doubles as the cache-key payload.
func (s Spec) Encode() []byte {
	// The interface fields carry json:"-" so a populated Options cannot
	// leak implementation-dependent bytes into the canonical form; the
	// identities must already be in Codec/Scrambler.
	b, err := json.Marshal(s)
	if err != nil {
		// Every encoded field is a plain value type; Marshal cannot fail.
		panic(fmt.Sprintf("wire: encoding spec: %v", err))
	}
	return b
}

// DecodeSpec parses a canonical spec encoding. Unknown fields are
// rejected: a worker on a different schema must fail loudly, not guess.
func DecodeSpec(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("wire: decoding spec: %w", err)
	}
	return s, nil
}

// Key derives the spec's persistent-store key: the keyed hash of the
// schema version and the canonical encoding. Every process that agrees
// on the schema derives the same key for the same spec — the property
// that lets local runs, remote workers and warm caches interoperate.
func (s Spec) Key() string {
	return specKeyer.Key(s.Encode())
}

// specKeyer derives runcache.Key(schemaVersion, ·) with the schema
// prefix hashed once, at package initialization.
var specKeyer = runcache.NewKeyer(schemaVersion)

// Encode renders the canonical byte form of the result.
func (r Result) Encode() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("wire: encoding result: %v", err))
	}
	return b
}

// DecodeResult parses a canonical result encoding (strict, like
// DecodeSpec).
func DecodeResult(b []byte) (Result, error) {
	var r Result
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Result{}, fmt.Errorf("wire: decoding result: %w", err)
	}
	return r, nil
}

// RunRequest is the body of POST /run on a bpserve worker.
type RunRequest struct {
	// Schema is the client's SchemaVersion; the worker rejects a
	// mismatch with 409 rather than computing an incompatible result.
	Schema string `json:"schema"`
	Spec   Spec   `json:"spec"`
}

// RunResponse is the successful reply to POST /run.
type RunResponse struct {
	Schema string `json:"schema"`
	Result Result `json:"result"`
	// Cached reports that the worker served the result from its shared
	// store instead of simulating.
	Cached bool `json:"cached"`
	// DurationMS is the worker-side simulation time (0 when Cached).
	DurationMS float64 `json:"duration_ms"`
}

// Health is the body of GET /healthz on a bpserve worker.
type Health struct {
	// Status is "ok", or "draining" once shutdown has begun.
	Status string `json:"status"`
	// Schema is the worker's SchemaVersion, checked by clients at probe
	// time.
	Schema string `json:"schema"`
	// Capacity is the worker's concurrency limit; clients size their
	// fan-out to the sum of their workers' capacities.
	Capacity int    `json:"capacity"`
	Inflight int    `json:"inflight"`
	Runs     uint64 `json:"runs"`
	Replays  uint64 `json:"replays"`
}

// Statz is the body of GET /statz on a bpserve worker: the live load
// and cache counters routing scorers decide on (internal/fleet). It is
// telemetry, not schema — adding fields never invalidates caches.
type Statz struct {
	// Capacity is the worker's concurrency limit (as in Health).
	Capacity int `json:"capacity"`
	// Inflight counts simulations holding a slot right now.
	Inflight int `json:"inflight"`
	// Queued counts accepted requests waiting for a simulation slot —
	// the backlog a least-loaded scorer steers around.
	Queued int `json:"queued"`
	// Runs and Replays mirror Health: simulations executed vs answered
	// from the worker's store.
	Runs    uint64 `json:"runs"`
	Replays uint64 `json:"replays"`
	// CacheHits/CacheMisses are the worker store's Get counters; an
	// affinity router sending specs to the right worker drives the hit
	// rate up.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Error is the JSON error body returned by a worker for non-2xx
// statuses.
type Error struct {
	Error string `json:"error"`
}
