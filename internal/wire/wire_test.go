package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/cpu"
	"xorbp/internal/runcache"
)

// -update-golden regenerates testdata/ from the current encoding. Run
// it deliberately: committing new goldens IS a schema change.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden wire encodings")

// goldenSpec exercises every Spec field with distinctive values.
func goldenSpec() Spec {
	return Spec{
		Opts: core.Options{
			Mechanism:         core.NoisyXOR,
			Scope:             core.StructAll,
			EnhancedPHT:       true,
			RotateOnPrivilege: true,
			FlushOnPrivilege:  true,
		},
		Codec:     "xor",
		Scrambler: "xor",
		Pred:      "tage",
		Cfg:       cpu.FPGAConfig(),
		Timer:     1_000_000,
		Threads:   []string{"gcc", "calculix"},
		Scale: Scale{
			WarmupInstr:     4_000_000,
			MeasureInstr:    16_000_000,
			SMTWarmupInstr:  8_000_000,
			SMTMeasureInstr: 48_000_000,
			TimerPeriods:    [3]uint64{1_000_000, 2_000_000, 3_000_000},
			TimerLabels:     [3]string{"4M", "8M", "12M"},
			Seed:            1,
		},
	}
}

// goldenResult exercises every Result field, including a populated
// Others slice.
func goldenResult() Result {
	return Result{
		Cycles: 123_456_789,
		Target: cpu.ThreadStats{
			Instructions: 16_000_000, Branches: 3_000_000, CondBranches: 2_500_000,
			DirMisp: 40_000, EffMisp: 42_000, TargMisp: 2_000, DecodeRedir: 9_000,
			Syscalls: 123,
		},
		Others: []cpu.ThreadStats{
			{Instructions: 15_000_000, Branches: 2_800_000, CondBranches: 2_300_000,
				DirMisp: 39_000, EffMisp: 41_000, TargMisp: 1_900, DecodeRedir: 8_500,
				Syscalls: 110},
		},
		PrivSwitches: 456,
		CtxSwitches:  78,
		BTBHitRate:   0.9375,
	}
}

// checkGolden compares got with the named golden file, rewriting it
// under -update-golden. The goldens lock the canonical byte encoding:
// if this test fails, the wire schema drifted, which invalidates every
// shared cache and mixed-version worker fleet — make sure that is what
// you intend, regenerate, and call the change out in review.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden once): %v", err)
	}
	want = bytes.TrimSuffix(want, []byte("\n"))
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical encoding drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	s := goldenSpec()
	enc := s.Encode()
	checkGolden(t, "spec.golden.json", enc)

	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, s) {
		t.Fatalf("spec round-trip mismatch:\n got: %+v\nwant: %+v", dec, s)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded spec changed the bytes")
	}
}

func TestResultGoldenRoundTrip(t *testing.T) {
	r := goldenResult()
	enc := r.Encode()
	checkGolden(t, "result.golden.json", enc)

	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, r) {
		t.Fatalf("result round-trip mismatch:\n got: %+v\nwant: %+v", dec, r)
	}
}

// TestEncodeDeterministic: equal specs encode to identical bytes — the
// property the cache keys and the cross-process write-through both
// stand on.
func TestEncodeDeterministic(t *testing.T) {
	a, b := goldenSpec(), goldenSpec()
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("equal specs encoded differently")
	}
	if a.Key() != b.Key() {
		t.Fatal("equal specs keyed differently")
	}
}

// TestKeyMatchesRuncacheKey: the package keyer's midstate path derives
// exactly runcache.Key over the schema version and canonical encoding,
// for both spec kinds, so no cache, journal or shard key moves.
func TestKeyMatchesRuncacheKey(t *testing.T) {
	for _, s := range []Spec{goldenSpec(), goldenAttackSpec(), {}} {
		if got, want := s.Key(), runcache.Key(SchemaVersion(), s.Encode()); got != want {
			t.Errorf("Key() = %s, want runcache.Key = %s for %s", got, want, s.Encode())
		}
	}
}

// BenchmarkSpecKey times one cell's wire key: canonical encoding plus
// SHA-256 from the schema midstate.
func BenchmarkSpecKey(b *testing.B) {
	s := goldenSpec()
	b.ReportAllocs()
	for b.Loop() {
		s.Key()
	}
}

// BenchmarkDecodeResult times one cached result's decode on a warm
// re-render.
func BenchmarkDecodeResult(b *testing.B) {
	enc := goldenResult().Encode()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeResult(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultEncode times one result's canonical encoding.
func BenchmarkResultEncode(b *testing.B) {
	r := goldenResult()
	b.ReportAllocs()
	for b.Loop() {
		r.Encode()
	}
}

// TestEncodeIgnoresInterfaceValues: a populated Codec/Scrambler value
// must not leak into the canonical bytes — identity travels by name.
func TestEncodeIgnoresInterfaceValues(t *testing.T) {
	a := goldenSpec()
	b := goldenSpec()
	b.Opts.Codec = core.RotXORCodec{}
	b.Opts.Scrambler = core.FeistelScrambler{}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("interface values leaked into the canonical encoding")
	}
}

// TestKeySensitivity: changing any load-bearing field changes the key.
func TestKeySensitivity(t *testing.T) {
	base := goldenSpec().Key()
	mutations := map[string]func(*Spec){
		"mechanism": func(s *Spec) { s.Opts.Mechanism = core.XOR },
		"codec":     func(s *Spec) { s.Codec = "rotxor" },
		"scrambler": func(s *Spec) { s.Scrambler = "feistel" },
		"pred":      func(s *Spec) { s.Pred = "gshare" },
		"timer":     func(s *Spec) { s.Timer++ },
		"threads":   func(s *Spec) { s.Threads = []string{"mcf"} },
		"seed":      func(s *Spec) { s.Scale.Seed++ },
		"cfg":       func(s *Spec) { s.Cfg.FetchWidth++ },
	}
	for name, mutate := range mutations {
		s := goldenSpec()
		mutate(&s)
		if s.Key() == base {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

// TestDecodeRejectsUnknownFields: a spec from a different schema
// generation fails loudly instead of being silently reinterpreted, and
// so does any other input that is not the canonical encoding — trailing
// data and case-variant keys included.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"opts":{},"surprise":1}`,
		`{"pred":"tage"}xyz`,
		`{"PRED":"tage"}`,
		string(goldenSpec().Encode()) + "xyz",
		strings.Replace(string(goldenSpec().Encode()), `"pred"`, `"PRED"`, 1),
	} {
		if _, err := DecodeSpec([]byte(in)); err == nil {
			t.Errorf("DecodeSpec accepted %s", in)
		}
	}
	for _, in := range []string{
		`{"cycles":1,"surprise":1}`,
		`{"cycles":7} {"cycles":9} trailing garbage`,
		`{"CYCLES":5}`,
		string(goldenResult().Encode()) + `{"cycles":9}`,
		strings.Replace(string(goldenResult().Encode()), `"cycles"`, `"CYCLES"`, 1),
	} {
		if _, err := DecodeResult([]byte(in)); err == nil {
			t.Errorf("DecodeResult accepted %s", in)
		}
	}
}

// TestSchemaVersionTracksTypes: the version string embeds the wire type
// structure, so it mentions the load-bearing types and is stable across
// calls.
func TestSchemaVersionTracksTypes(t *testing.T) {
	v := SchemaVersion()
	if v != SchemaVersion() {
		t.Fatal("SchemaVersion is not deterministic")
	}
	for _, want := range []string{"wire.Spec", "wire.Result", "core.Options",
		"cpu.Config", "wire.Scale", "cpu.ThreadStats", "Mechanism"} {
		if !strings.Contains(v, want) {
			t.Errorf("schema version missing %q:\n%s", want, v)
		}
	}
}

// goldenAttackSpec exercises every field of the attack job kind.
func goldenAttackSpec() Spec {
	return Spec{
		Kind: KindAttack,
		Opts: core.Options{
			Mechanism:         core.XOR,
			Scope:             core.StructPHT,
			EnhancedPHT:       true,
			RotateOnPrivilege: true,
			FlushOnPrivilege:  true,
		},
		Codec:     "xor",
		Scrambler: "xor",
		Pred:      "perceptron",
		Attack: &AttackSpec{
			Name:        "pht_training",
			Scenario:    "SMT",
			RekeyPeriod: 16,
			Trials:      10_000,
			Attempts:    100,
			Seed:        7,
		},
	}
}

// goldenAttackResult exercises the attack-kind result payload.
func goldenAttackResult() Result {
	return Result{Attack: &AttackResult{Successes: 9_654, Trials: 10_000}}
}

func TestAttackSpecGoldenRoundTrip(t *testing.T) {
	s := goldenAttackSpec()
	enc := s.Encode()
	checkGolden(t, "attack_spec.golden.json", enc)

	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, s) {
		t.Fatalf("attack spec round-trip mismatch:\n got: %+v\nwant: %+v", dec, s)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded attack spec changed the bytes")
	}
}

func TestAttackResultGoldenRoundTrip(t *testing.T) {
	r := goldenAttackResult()
	enc := r.Encode()
	checkGolden(t, "attack_result.golden.json", enc)

	dec, err := DecodeResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, r) {
		t.Fatalf("attack result round-trip mismatch:\n got: %+v\nwant: %+v", dec, r)
	}
	if got, want := dec.Attack.Rate(), 0.9654; got != want {
		t.Fatalf("decoded attack rate = %v, want %v", got, want)
	}
}

// TestPerfSpecOmitsAttackFields: the attack-kind fields must not leak
// into the canonical bytes of performance runs — their keys (and any
// warm cache built from them) would otherwise change for nothing.
func TestPerfSpecOmitsAttackFields(t *testing.T) {
	enc := string(goldenSpec().Encode())
	for _, banned := range []string{`"kind"`, `"attack"`} {
		if strings.Contains(enc, banned) {
			t.Errorf("performance spec encoding contains %s: %s", banned, enc)
		}
	}
}

// TestAttackKeySensitivity: every attack-payload field is load-bearing
// for the cache key.
func TestAttackKeySensitivity(t *testing.T) {
	base := goldenAttackSpec().Key()
	if base == goldenSpec().Key() {
		t.Fatal("attack and performance specs share a key")
	}
	mutations := map[string]func(*Spec){
		"name":     func(s *Spec) { s.Attack.Name = "btb_training" },
		"scenario": func(s *Spec) { s.Attack.Scenario = "single" },
		"rekey":    func(s *Spec) { s.Attack.RekeyPeriod++ },
		"trials":   func(s *Spec) { s.Attack.Trials++ },
		"attempts": func(s *Spec) { s.Attack.Attempts++ },
		"seed":     func(s *Spec) { s.Attack.Seed++ },
		"pred":     func(s *Spec) { s.Pred = "" },
		"mech":     func(s *Spec) { s.Opts.Mechanism = core.NoisyXOR },
	}
	for name, mutate := range mutations {
		s := goldenAttackSpec()
		mutate(&s)
		if s.Key() == base {
			t.Errorf("attack mutation %q did not change the key", name)
		}
	}
}

// TestSchemaEpoch3: the union schema is a new epoch — epoch-2 caches
// are superseded, not aliased.
func TestSchemaEpoch3(t *testing.T) {
	if !strings.Contains(SchemaVersion(), "/epoch3/") {
		t.Fatalf("schema version %q is not epoch 3", SchemaVersion())
	}
	for _, want := range []string{"wire.AttackSpec", "wire.AttackResult"} {
		if !strings.Contains(SchemaVersion(), want) {
			t.Errorf("schema version missing %q", want)
		}
	}
}
