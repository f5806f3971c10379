package runcache

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzOpenEntry feeds arbitrary bytes to the store's entry loader: a
// cache directory is shared, crash-prone state, so any on-disk file —
// torn, truncated, tampered, from an older entry format, or from a
// foreign tool — must either load as a valid entry or be quarantined.
// Open must never panic and never trust a file whose header disagrees
// with its location or whose value fails its checksum.
func FuzzOpenEntry(f *testing.F) {
	const schema = "fuzz-schema-v1"
	const key = "00deadbeef"
	f.Add(encodeEntry(schemaID(schema), key, []byte(`{"x":1}`)))
	// Format-2 JSON envelopes, once valid, must now all quarantine.
	f.Add([]byte(`{"schema":"fuzz-schema-v1","key":"00deadbeef","crc":` +
		strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(`{"x":1}`))), 10) + `,"value":{"x":1}}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"schema":"fuzz-schema-v1","key":"wrong","value":{}}`))
	f.Add([]byte(`{"schema":"other","key":"00deadbeef","value":{}}`))
	f.Add([]byte(`{"schema":"fuzz-schema-v1","key":"00deadbeef","value":null}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		id := schemaID(schema)
		sub := filepath.Join(dir, id)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(sub, key+entrySuffix)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, schema)
		if err != nil {
			t.Fatalf("Open must tolerate arbitrary entry bytes, got: %v", err)
		}
		st := s.Stats()
		if st.Loaded+st.Quarantined != 1 {
			t.Fatalf("entry neither loaded nor quarantined: %+v", st)
		}
		if st.Loaded == 1 {
			// A loaded entry's header names this schema's ID and the
			// file's key with the CRC of what follows it, and Get returns
			// exactly the bytes after the header.
			prefix := []byte(entryMagic + " " + id + " " + key + " ")
			if !bytes.HasPrefix(raw, prefix) || len(raw) < len(prefix)+crcDigits+1 {
				t.Fatalf("loader accepted a file without this schema's and key's header: %q", raw)
			}
			value := raw[len(prefix)+crcDigits+1:]
			if want := encodeEntry(id, key, value); !bytes.Equal(raw, want) {
				t.Fatalf("loader accepted %q; the canonical entry for its value is %q", raw, want)
			}
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, value) {
				t.Fatalf("loaded value mismatch: got %q want %q", got, value)
			}
		} else {
			// Quarantine renames aside; the original name must be gone and
			// a re-Open must see an empty store, not re-trip on the file.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("quarantined entry still present under its live name")
			}
			s2, err := Open(dir, schema)
			if err != nil || s2.Len() != 0 {
				t.Fatalf("re-Open after quarantine: len=%d err=%v", s2.Len(), err)
			}
		}
	})
}
