package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The decode fuzzers guard the trust boundary of the wire schema: every
// byte string a bpserve worker or cache loader can receive must either
// decode cleanly or return an error — never panic — and anything that
// decodes must be canonical: the input is exactly the encoding of the
// value it decoded to. The committed corpora under testdata/fuzz/ seed
// the interesting shapes; `go test -fuzz=FuzzDecodeSpec` explores from
// there.

// seedGoldens adds every golden encoding, without the file's trailing
// newline, as a fuzz seed, so the corpus always contains the current
// canonical forms.
func seedGoldens(f *testing.F, names ...string) {
	f.Helper()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatalf("reading golden seed: %v", err)
		}
		f.Add(bytes.TrimSuffix(b, []byte("\n")))
	}
}

func FuzzDecodeSpec(f *testing.F) {
	seedGoldens(f, "spec.golden.json", "attack_spec.golden.json")
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"attack"}`))
	f.Add([]byte(`{"threads":["gcc","gcc"],"timer":1}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSpec(b)
		if err != nil {
			return // rejected input; the absence of a panic is the pass
		}
		enc := s.Encode()
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted a non-canonical spec:\n in: %q\nenc: %q", b, enc)
		}
		s2, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(enc, s2.Encode()) {
			t.Fatalf("decode/encode round trip is not a fixed point:\n%s\n%s", enc, s2.Encode())
		}
		// The cache key is a pure function of the canonical form; two
		// derivations must agree.
		if s.Key() != s2.Key() {
			t.Fatal("equal canonical encodings derive different cache keys")
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	seedGoldens(f, "result.golden.json", "attack_result.golden.json")
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"target_mpki":1.5,"elapsed_cycles":9}`))
	// Non-canonical spellings of valid results, all of which must be
	// rejected: whitespace, reordered fields, a case-variant key, a
	// trailing newline, trailing data, a leading zero and an exponent.
	canon := goldenResult().Encode()
	f.Add(bytes.ReplaceAll(canon, []byte(`,"`), []byte(`, "`)))
	f.Add([]byte(`{"ctx_switches":0,"cycles":0,"target":{"instructions":0,"branches":0,"cond_branches":0,"dir_misp":0,"eff_misp":0,"targ_misp":0,"decode_redir":0,"syscalls":0},"others":null,"priv_switches":0,"btb_hit_rate":0}`))
	f.Add(bytes.Replace(canon, []byte(`"cycles"`), []byte(`"Cycles"`), 1))
	f.Add(append(bytes.Clone(canon), '\n'))
	f.Add([]byte(`{"cycles":7} {"cycles":9} trailing garbage`))
	f.Add(append(bytes.Clone(canon), canon...))
	f.Add(bytes.Replace(canon, []byte(`"cycles":1`), []byte(`"cycles":01`), 1))
	f.Add(bytes.Replace(canon, []byte(`0.9375`), []byte(`9.375e-1`), 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeResult(b)
		if err != nil {
			return
		}
		enc := r.Encode()
		if !bytes.Equal(enc, b) {
			t.Fatalf("accepted a non-canonical result:\n in: %q\nenc: %q", b, enc)
		}
		r2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v\n%s", err, enc)
		}
		if !bytes.Equal(enc, r2.Encode()) {
			t.Fatalf("decode/encode round trip is not a fixed point:\n%s\n%s", enc, r2.Encode())
		}
	})
}
