package runcache

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	key := s.Key([]byte("payload-1"))
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(key, []byte(`{"cycles":42}`)); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(key); !ok || string(v) != `{"cycles":42}` {
		t.Fatalf("in-process Get = %q, %v", v, ok)
	}

	// A fresh Open on the same directory sees the entry.
	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(key); !ok || string(v) != `{"cycles":42}` {
		t.Fatalf("reopened Get = %q, %v", v, ok)
	}
	if st := s2.Stats(); st.Loaded != 1 || st.Hits != 1 {
		t.Fatalf("reopened stats = %+v, want 1 loaded, 1 hit", st)
	}
}

func TestSchemaMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(a.Key([]byte("k")), []byte(`1`)); err != nil {
		t.Fatal(err)
	}

	// A different schema starts empty: old entries are invalid for it and
	// its keys cannot alias them (the key hash includes the schema).
	b, err := Open(dir, "schema-b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("schema-b store loaded %d entries from schema-a", b.Len())
	}
	if _, ok := b.Get(b.Key([]byte("k"))); ok {
		t.Fatal("schema-b key aliased a schema-a entry")
	}
	if a.Key([]byte("k")) == b.Key([]byte("k")) {
		t.Fatal("identical payloads under different schemas share a key")
	}

	// The old schema's entries are untouched, not deleted.
	a2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Len() != 1 {
		t.Fatalf("schema-a store lost its entry: %d left", a2.Len())
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	good := s.Key([]byte("good"))
	if err := s.Put(good, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	// Three corruption shapes: unparseable bytes, a well-formed entry
	// recorded under the wrong schema, and a file whose name disagrees
	// with its recorded key.
	writeRaw := func(name string, content []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(s.Dir(), name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw("feedfeed.entry", []byte("not an entry at all"))
	writeRaw("deadbeef.entry", encodeEntry(schemaID("schema-z"), "deadbeef", []byte(`1`)))
	writeRaw("cafecafe.entry", encodeEntry(schemaID("schema-a"), "somethingelse", []byte(`1`)))

	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("store loaded %d entries, want only the good one", s2.Len())
	}
	if st := s2.Stats(); st.Quarantined != 3 {
		t.Fatalf("quarantined %d files, want 3 (%+v)", st.Quarantined, st)
	}
	quarantined, _ := filepath.Glob(filepath.Join(s2.Dir(), "*.corrupt"))
	if len(quarantined) != 3 {
		t.Fatalf("found %d .corrupt files, want 3", len(quarantined))
	}
	// Quarantine is sticky: the next Open does not re-examine them.
	s3, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Quarantined != 0 || st.Loaded != 1 {
		t.Fatalf("second reopen stats = %+v, want no new quarantines", st)
	}
	// The store stays usable after quarantining.
	if err := s2.Put(s2.Key([]byte("more")), []byte(`2`)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStores exercises two Store handles sharing one directory
// — the shape of two concurrent bpsim processes — under the race
// detector: overlapping Puts of identical content and concurrent Gets.
func TestConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, s := range []*Store{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := s.Key([]byte(fmt.Sprintf("k%d", i)))
				if err := s.Put(key, []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(key); !ok || !strings.Contains(string(v), fmt.Sprint(i)) {
					t.Errorf("Get after Put: %q, %v", v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	c, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 50 || c.Stats().Quarantined != 0 {
		t.Fatalf("after concurrent writers: %d entries (%+v), want 50 clean",
			c.Len(), c.Stats())
	}
}

// TestCRCMismatchQuarantined: an entry whose value was altered on disk
// under an intact header naming the right schema and key — the
// silent-corruption case only the checksum can catch — is quarantined
// at the next Open instead of replaying as a wrong result.
func TestCRCMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	key := s.Key([]byte("payload"))
	if err := s.Put(key, []byte(`{"cycles":42}`)); err != nil {
		t.Fatal(err)
	}
	// Rewrite the file with a different value under the stale CRC:
	// the header and the value's JSON shape all stay valid.
	path := filepath.Join(s.Dir(), key+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(raw), `{"cycles":42}`, `{"cycles":43}`, 1)
	if tampered == string(raw) {
		t.Fatalf("tampering found nothing to replace in %q", raw)
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); ok {
		t.Fatal("a CRC-mismatched entry replayed")
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
}

// TestBinaryEntriesChecksummed: PutBinary blobs ride the same entry
// format as raw bytes, so they round-trip across Opens and corrupting one on disk
// quarantines it like any result entry.
func TestBinaryEntriesChecksummed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte{0x00, 0x01, 0xFE, 0xFF, 0x42}
	key := s.Key([]byte("snap"))
	if err := s.PutBinary(key, blob); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.GetBinary(key)
	if !ok || string(got) != string(blob) {
		t.Fatalf("GetBinary = %v, %v", got, ok)
	}

	// Swap the payload's last byte under the stale CRC; the checksum
	// must reject it.
	path := filepath.Join(s.Dir(), key+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), string(blob)) {
		t.Fatalf("entry %q does not end with the expected payload", raw)
	}
	tampered := string(raw[:len(raw)-1]) + "\x43"
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.GetBinary(key); ok {
		t.Fatal("a tampered binary entry replayed")
	}
	if st := s3.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
}

// faultStub is a test FileFault: it errors when failing is set, and
// otherwise flips the last byte of every entry on its way to disk.
type faultStub struct {
	failing bool
	writes  int
}

func (f *faultStub) WriteEntry(key string, raw []byte) ([]byte, error) {
	f.writes++
	if f.failing {
		return nil, fmt.Errorf("stub: no space left on device")
	}
	out := append([]byte(nil), raw...)
	out[len(out)-1] ^= 0xFF
	return out, nil
}

// TestFileFaultWriteError: a failed entry write is counted, reported,
// and does not evict the in-memory copy — but the entry is gone after a
// reopen (it never reached disk).
func TestFileFaultWriteError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFileFault(&faultStub{failing: true})
	key := s.Key([]byte("k"))
	if err := s.Put(key, []byte(`1`)); err == nil {
		t.Fatal("Put under an erroring fault succeeded")
	}
	if v, ok := s.Get(key); !ok || string(v) != `1` {
		t.Fatalf("in-memory copy after failed write = %q, %v", v, ok)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Fatalf("stats = %+v, want 1 put error", st)
	}
	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("reopened store holds %d entries, want 0", s2.Len())
	}
}

// TestFileFaultCorruptionCaught: bytes perturbed by the fault hook land
// on disk (the write itself succeeds) and the next Open quarantines
// them — the end-to-end contract chaosbench's cache scenario rides.
func TestFileFaultCorruptionCaught(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	fs := &faultStub{}
	s.SetFileFault(fs)
	key := s.Key([]byte("k"))
	if err := s.Put(key, []byte(`{"cycles":7}`)); err != nil {
		t.Fatal(err)
	}
	if fs.writes != 1 {
		t.Fatalf("fault hook saw %d writes, want 1", fs.writes)
	}
	if v, ok := s.Get(key); !ok || string(v) != `{"cycles":7}` {
		t.Fatalf("in-memory copy = %q, %v", v, ok)
	}
	s2, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.Stats().Quarantined != 1 {
		t.Fatalf("reopened store: %d entries, stats %+v; want the corrupt entry quarantined",
			s2.Len(), s2.Stats())
	}
}

// TestEveryBitFlipQuarantined flips each bit of a stored result entry
// and of a PutBinary entry in turn: every flip, in the header or the
// value, must be quarantined at the next Open — chaosbench's reopen
// check counts on exactly the corrupted entries being swept.
func TestEveryBitFlipQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name string
		put  func(s *Store, key string) error
	}{
		{"result", func(s *Store, key string) error {
			return s.Put(key, []byte(`{"schema":"x","cycles":42,"mpki":1.5}`))
		}},
		{"binary", func(s *Store, key string) error {
			return s.PutBinary(key, []byte{0x00, 0x01, 0xFE, 0xFF, 0x42, '\n', ' '})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, "schema-a")
			if err != nil {
				t.Fatal(err)
			}
			key := s.Key([]byte(tc.name))
			if err := tc.put(s, key); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Dir(), key+entrySuffix)
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for bit := 0; bit < len(good)*8; bit++ {
				bad := append([]byte(nil), good...)
				bad[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				s2, err := Open(dir, "schema-a")
				if err != nil {
					t.Fatal(err)
				}
				if st := s2.Stats(); st.Quarantined != 1 || st.Loaded != 0 {
					t.Fatalf("flipping bit %d of %q: stats %+v, want the entry quarantined", bit, good, st)
				}
				if err := os.Remove(path + ".corrupt"); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestKeyerGolden pins Keyer and Key to independently computed SHA-256
// values: the midstate path must not move any cache, journal or shard
// key.
func TestKeyerGolden(t *testing.T) {
	long := "xorbp-run/epoch9/" + strings.Repeat("x", 200) // spans several SHA-256 blocks
	for _, tc := range []struct {
		schema, payload, want string
	}{
		{"s", "p", "32ce7a236be302a7a6630f50b2fff5cfe504bf3ce9954c6ca59a1ee9cca9bdc4"},
		{"schema-a", "", "1ace7d6446b5e89c66767b7c7c01b0be960a43c3a753765163c236c8169eaead"},
		{long, `{"kind":"","pred":"tage"}`, "c2c157852d49e7820df58e096bdc294c39b1462e48e0f83c6a7c4eeccb90932c"},
	} {
		if got := Key(tc.schema, []byte(tc.payload)); got != tc.want {
			t.Errorf("Key(%.20q, %q) = %s, want %s", tc.schema, tc.payload, got, tc.want)
		}
		k := NewKeyer(tc.schema)
		for i := 0; i < 2; i++ { // reuse must not disturb the saved state
			if got := k.Key([]byte(tc.payload)); got != tc.want {
				t.Errorf("NewKeyer(%.20q).Key(%q) = %s, want %s", tc.schema, tc.payload, got, tc.want)
			}
		}
	}
}

// BenchmarkOpen loads a directory of 648 entries the size of real
// results — the evaluation grid a warm bpsim pass reopens.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, "bench-schema")
	if err != nil {
		b.Fatal(err)
	}
	value := []byte(`{"cycles":1234567,"instructions":1000000,"cond_branches":180000,"mispredicts":` +
		strings.Repeat(`1234,`, 80) + `0}`)
	for i := 0; i < 648; i++ {
		if err := s.Put(s.Key([]byte(strconv.Itoa(i))), value); err != nil {
			b.Fatal(err)
		}
	}
	for b.Loop() {
		st, err := Open(dir, "bench-schema")
		if err != nil || st.Len() != 648 {
			b.Fatalf("Open: %d entries, %v", st.Len(), err)
		}
	}
}

func TestKeyDeterministic(t *testing.T) {
	if Key("s", []byte("p")) != Key("s", []byte("p")) {
		t.Fatal("Key is not deterministic")
	}
	if Key("s", []byte("p")) == Key("s", []byte("q")) ||
		Key("s", []byte("p")) == Key("t", []byte("p")) {
		t.Fatal("distinct inputs collide")
	}
}
