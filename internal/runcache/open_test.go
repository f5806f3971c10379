package runcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// reopen opens dir under schema-a, failing the test on error.
func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, "schema-a")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOpenEntriesAcrossSlabs: entries smaller than, equal to a few of,
// and several times larger than a read slab, stored in any order, all
// load intact, and a caller appending to one loaded value cannot
// disturb another.
func TestOpenEntriesAcrossSlabs(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	values := map[string][]byte{}
	for i, size := range []int{1, 500, slabSize - 40, 3*slabSize + 123, 700, slabSize, 2} {
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i*31 + j*7)
		}
		k := s.Key([]byte{byte(i)})
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		values[k] = v
	}

	s2 := reopen(t, dir)
	if st := s2.Stats(); st.Loaded != len(values) || st.Quarantined != 0 {
		t.Fatalf("reopened stats = %+v, want %d loaded", st, len(values))
	}
	for k, want := range values {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("entry of %d bytes reloaded as %d bytes (ok %v)", len(want), len(got), ok)
		}
		_ = append(got, bytes.Repeat([]byte{0xff}, 256)...)
	}
	for k, want := range values {
		if got, _ := s2.Get(k); !bytes.Equal(got, want) {
			t.Fatalf("appending to one loaded value changed an entry of %d bytes", len(want))
		}
	}
}

// TestOpenEmptyValue: an empty value is a valid entry, not corruption.
func TestOpenEmptyValue(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	k := s.Key([]byte("empty"))
	if err := s.Put(k, nil); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, dir)
	if v, ok := s2.Get(k); !ok || len(v) != 0 {
		t.Fatalf("empty value reloaded as %q, %v", v, ok)
	}
	if st := s2.Stats(); st.Loaded != 1 || st.Quarantined != 0 {
		t.Fatalf("reopened stats = %+v, want 1 loaded", st)
	}
}

// TestOpenSkipsUnreadableEntries: an entry name whose file vanished
// between listing and reading (a dangling symlink stands in for it),
// and a directory carrying an entry name, are skipped, not quarantined.
func TestOpenSkipsUnreadableEntries(t *testing.T) {
	dir := t.TempDir()
	s := reopen(t, dir)
	good := s.Key([]byte("good"))
	if err := s.Put(good, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	gone := filepath.Join(s.Dir(), s.Key([]byte("gone"))+entrySuffix)
	if err := os.Symlink(filepath.Join(dir, "no-such-file"), gone); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	sub := filepath.Join(s.Dir(), s.Key([]byte("dir"))+entrySuffix)
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}

	s2 := reopen(t, dir)
	if st := s2.Stats(); st.Loaded != 1 || st.Quarantined != 0 {
		t.Fatalf("reopened stats = %+v, want 1 loaded, 0 quarantined", st)
	}
	for _, p := range []string{gone, sub} {
		if _, err := os.Lstat(p); err != nil {
			t.Fatalf("%s was moved aside: %v", filepath.Base(p), err)
		}
	}
}
