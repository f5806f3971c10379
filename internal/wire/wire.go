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
//
// The codec is hand-written: Spec.Encode, Result.Encode and
// DecodeResult append and parse fields in declaration order without
// reflection, because a warm re-render decodes every cached result and
// keys every planned spec. The bytes are exactly what encoding/json
// writes for the tagged types, and encoding/json is the codec's test
// reference: the tests compare the two byte for byte on values filled
// field by field through reflection, so a field added without codec
// support fails them. Decoders accept only canonical bytes — the
// encoding of the value they return.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

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
//
// The interface fields of Opts are not encoded: their identities
// travel in Codec/Scrambler, so a populated Options cannot leak
// implementation-dependent bytes into the canonical form.
func (s Spec) Encode() []byte {
	// A performance spec encodes to about 640 bytes.
	return s.appendJSON(make([]byte, 0, 768))
}

func (s *Spec) appendJSON(b []byte) []byte {
	b = append(b, '{')
	if s.Kind != "" {
		b = append(b, `"kind":`...)
		b = appendString(b, s.Kind)
		b = append(b, ',')
	}
	o := &s.Opts
	b = append(b, `"opts":{"mechanism":`...)
	b = strconv.AppendInt(b, int64(o.Mechanism), 10)
	b = append(b, `,"scope":`...)
	b = strconv.AppendUint(b, uint64(o.Scope), 10)
	b = append(b, `,"enhanced_pht":`...)
	b = strconv.AppendBool(b, o.EnhancedPHT)
	b = append(b, `,"rotate_on_privilege":`...)
	b = strconv.AppendBool(b, o.RotateOnPrivilege)
	b = append(b, `,"flush_on_privilege":`...)
	b = strconv.AppendBool(b, o.FlushOnPrivilege)
	b = append(b, `,"rekey_period":`...)
	b = strconv.AppendUint(b, o.RekeyPeriod, 10)
	b = append(b, `},"codec":`...)
	b = appendString(b, s.Codec)
	b = append(b, `,"scrambler":`...)
	b = appendString(b, s.Scrambler)
	b = append(b, `,"pred":`...)
	b = appendString(b, s.Pred)
	c := &s.Cfg
	b = append(b, `,"cfg":{"name":`...)
	b = appendString(b, c.Name)
	b = append(b, `,"fetch_width":`...)
	b = strconv.AppendInt(b, int64(c.FetchWidth), 10)
	b = append(b, `,"mispredict_penalty":`...)
	b = strconv.AppendUint(b, c.MispredictPenalty, 10)
	b = append(b, `,"btb_miss_penalty":`...)
	b = strconv.AppendUint(b, c.BTBMissPenalty, 10)
	b = append(b, `,"btb":{"sets":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.Sets), 10)
	b = append(b, `,"ways":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.Ways), 10)
	b = append(b, `,"tag_bits":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.TagBits), 10)
	b = append(b, `,"target_bits":`...)
	b = strconv.AppendUint(b, uint64(c.BTB.TargetBits), 10)
	b = append(b, `},"ras_depth":`...)
	b = strconv.AppendInt(b, int64(c.RASDepth), 10)
	b = append(b, `,"hw_threads":`...)
	b = strconv.AppendInt(b, int64(c.HWThreads), 10)
	b = append(b, `},"timer":`...)
	b = strconv.AppendUint(b, s.Timer, 10)
	b = append(b, `,"threads":`...)
	if s.Threads == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, t := range s.Threads {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, t)
		}
		b = append(b, ']')
	}
	sc := &s.Scale
	b = append(b, `,"scale":{"warmup_instr":`...)
	b = strconv.AppendUint(b, sc.WarmupInstr, 10)
	b = append(b, `,"measure_instr":`...)
	b = strconv.AppendUint(b, sc.MeasureInstr, 10)
	b = append(b, `,"smt_warmup_instr":`...)
	b = strconv.AppendUint(b, sc.SMTWarmupInstr, 10)
	b = append(b, `,"smt_measure_instr":`...)
	b = strconv.AppendUint(b, sc.SMTMeasureInstr, 10)
	b = append(b, `,"timer_periods":[`...)
	for i, p := range sc.TimerPeriods {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, p, 10)
	}
	b = append(b, `],"timer_labels":[`...)
	for i, l := range sc.TimerLabels {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, l)
	}
	b = append(b, `],"seed":`...)
	b = strconv.AppendUint(b, sc.Seed, 10)
	b = append(b, '}')
	if a := s.Attack; a != nil {
		b = append(b, `,"attack":{"name":`...)
		b = appendString(b, a.Name)
		b = append(b, `,"scenario":`...)
		b = appendString(b, a.Scenario)
		b = append(b, `,"rekey_period":`...)
		b = strconv.AppendUint(b, a.RekeyPeriod, 10)
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(a.Trials), 10)
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(a.Attempts), 10)
		b = append(b, `,"seed":`...)
		b = strconv.AppendUint(b, a.Seed, 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

// DecodeSpec parses a canonical spec encoding: it accepts exactly the
// bytes Encode produces. Unknown fields, case-variant keys, whitespace
// and trailing data are rejected: a worker on a different schema must
// fail loudly, not guess.
func DecodeSpec(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("wire: decoding spec: %w", err)
	}
	if !bytes.Equal(s.Encode(), b) {
		return Spec{}, errors.New("wire: decoding spec: input is not the canonical encoding")
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

// Encode renders the canonical byte form of the result. It panics on a
// NaN or infinite BTBHitRate, which JSON cannot carry and no simulation
// produces.
func (r Result) Encode() []byte {
	// A result with one other thread encodes to about 430 bytes.
	return r.appendJSON(make([]byte, 0, 512))
}

func (r *Result) appendJSON(b []byte) []byte {
	b = append(b, `{"cycles":`...)
	b = strconv.AppendUint(b, r.Cycles, 10)
	b = append(b, `,"target":`...)
	b = appendThreadStats(b, &r.Target)
	b = append(b, `,"others":`...)
	if r.Others == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Others {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendThreadStats(b, &r.Others[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"priv_switches":`...)
	b = strconv.AppendUint(b, r.PrivSwitches, 10)
	b = append(b, `,"ctx_switches":`...)
	b = strconv.AppendUint(b, r.CtxSwitches, 10)
	b = append(b, `,"btb_hit_rate":`...)
	b = appendFloat(b, r.BTBHitRate)
	if a := r.Attack; a != nil {
		b = append(b, `,"attack":{"successes":`...)
		b = strconv.AppendInt(b, int64(a.Successes), 10)
		b = append(b, `,"trials":`...)
		b = strconv.AppendInt(b, int64(a.Trials), 10)
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendThreadStats(b []byte, s *cpu.ThreadStats) []byte {
	b = append(b, `{"instructions":`...)
	b = strconv.AppendUint(b, s.Instructions, 10)
	b = append(b, `,"branches":`...)
	b = strconv.AppendUint(b, s.Branches, 10)
	b = append(b, `,"cond_branches":`...)
	b = strconv.AppendUint(b, s.CondBranches, 10)
	b = append(b, `,"dir_misp":`...)
	b = strconv.AppendUint(b, s.DirMisp, 10)
	b = append(b, `,"eff_misp":`...)
	b = strconv.AppendUint(b, s.EffMisp, 10)
	b = append(b, `,"targ_misp":`...)
	b = strconv.AppendUint(b, s.TargMisp, 10)
	b = append(b, `,"decode_redir":`...)
	b = strconv.AppendUint(b, s.DecodeRedir, 10)
	b = append(b, `,"syscalls":`...)
	b = strconv.AppendUint(b, s.Syscalls, 10)
	return append(b, '}')
}

// DecodeResult parses a canonical result encoding: it accepts exactly
// the bytes Encode produces, so whitespace, reordered, unknown or
// case-variant keys, non-canonical numbers and trailing data are all
// rejected.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	p := parser{b: b}
	p.lit(`{"cycles":`)
	r.Cycles = p.uint()
	p.lit(`,"target":`)
	p.threadStats(&r.Target)
	p.lit(`,"others":`)
	switch {
	case p.opt("null"):
	case p.opt("[]"):
		r.Others = []cpu.ThreadStats{}
	default:
		p.lit("[")
		for {
			var s cpu.ThreadStats
			p.threadStats(&s)
			r.Others = append(r.Others, s)
			if p.bad || !p.opt(",") {
				break
			}
		}
		p.lit("]")
	}
	p.lit(`,"priv_switches":`)
	r.PrivSwitches = p.uint()
	p.lit(`,"ctx_switches":`)
	r.CtxSwitches = p.uint()
	p.lit(`,"btb_hit_rate":`)
	r.BTBHitRate = p.float()
	if p.opt(`,"attack":{"successes":`) {
		r.Attack = &AttackResult{Successes: p.int()}
		p.lit(`,"trials":`)
		r.Attack.Trials = p.int()
		p.lit("}")
	}
	p.lit("}")
	if err := p.end(); err != nil {
		return Result{}, fmt.Errorf("wire: decoding result: %w", err)
	}
	// The parser takes some non-canonical spellings (leading zeros, a
	// float's exponent form); re-encoding rejects them. The stack buffer
	// holds the re-encoding of a simulated result with up to three
	// other threads; a larger one grows onto the heap.
	var buf [1024]byte
	if !bytes.Equal(r.appendJSON(buf[:0]), b) {
		return Result{}, errors.New("wire: decoding result: input is not the canonical encoding")
	}
	return r, nil
}

func (p *parser) threadStats(s *cpu.ThreadStats) {
	p.lit(`{"instructions":`)
	s.Instructions = p.uint()
	p.lit(`,"branches":`)
	s.Branches = p.uint()
	p.lit(`,"cond_branches":`)
	s.CondBranches = p.uint()
	p.lit(`,"dir_misp":`)
	s.DirMisp = p.uint()
	p.lit(`,"eff_misp":`)
	s.EffMisp = p.uint()
	p.lit(`,"targ_misp":`)
	s.TargMisp = p.uint()
	p.lit(`,"decode_redir":`)
	s.DecodeRedir = p.uint()
	p.lit(`,"syscalls":`)
	s.Syscalls = p.uint()
	p.lit("}")
}

// parser is a cursor over a canonical encoding. The first mismatch
// sets bad and turns every later step into a no-op, so decoders read
// straight through and check once, at end.
type parser struct {
	b    []byte
	i    int
	bad  bool
	want string // what the cursor expected where it stopped
}

func (p *parser) fail(want string) {
	if !p.bad {
		p.bad, p.want = true, want
	}
}

// lit consumes s or fails.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.fail(strconv.Quote(s))
	}
}

// opt consumes s if the input continues with it.
func (p *parser) opt(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// uint consumes a decimal uint64.
func (p *parser) uint() uint64 {
	if p.bad {
		return 0
	}
	start := p.i
	var v uint64
	for ; p.i < len(p.b) && p.b[p.i]-'0' <= 9; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.fail("a uint64")
			return 0
		}
		v = v*10 + d
	}
	if p.i == start {
		p.fail("a uint64")
	}
	return v
}

// int consumes a decimal int.
func (p *parser) int() int {
	v, err := strconv.ParseInt(string(p.token("-0123456789")), 10, strconv.IntSize)
	if err != nil {
		p.fail("an int")
	}
	return int(v)
}

// float consumes a JSON number as a float64.
func (p *parser) float() float64 {
	v, err := strconv.ParseFloat(string(p.token("-+.0123456789eE")), 64)
	if err != nil {
		p.fail("a float64")
	}
	return v
}

// token consumes the longest run of bytes from set.
func (p *parser) token(set string) []byte {
	if p.bad {
		return nil
	}
	start := p.i
	for p.i < len(p.b) && strings.IndexByte(set, p.b[p.i]) >= 0 {
		p.i++
	}
	return p.b[start:p.i]
}

// end reports the first mismatch, or trailing bytes after the value.
func (p *parser) end() error {
	if p.bad {
		return fmt.Errorf("offset %d: want %s", p.i, p.want)
	}
	if p.i != len(p.b) {
		return fmt.Errorf("offset %d: trailing data after the value", p.i)
	}
	return nil
}

// appendString appends s as a JSON string exactly as encoding/json
// writes it: `"` and `\` backslash-escaped; \b, \f, \n, \r and \t by
// name; other control characters and the HTML-sensitive <, > and & as
// \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte of invalid
// UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest round-trip digits, in 'f' format except below 1e-6 and from
// 1e21 up, where it uses 'e' with a one-digit-minimum exponent (e-9,
// not e-09).
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic("wire: encoding result: unsupported float value " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
