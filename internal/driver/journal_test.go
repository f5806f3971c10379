package driver

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/experiment"
	"xorbp/internal/wire"
	"xorbp/internal/workload"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.journal")
}

// TestJournalAppendReplay: completions written before a (simulated)
// crash are all there on resume, and duplicate completions are recorded
// once.
func TestJournalAppendReplay(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path, "schema-a", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Plan([]string{"k0", "k1", "k2"})
	j.Completed("k0", wire.Result{Cycles: 10})
	j.Completed("k1", wire.Result{Cycles: 11})
	j.Completed("k1", wire.Result{Cycles: 99}) // duplicate: first wins
	j.Completed("", wire.Result{Cycles: 1})    // no key, no record
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	// No Close: a SIGKILL'd process doesn't close its journal either.

	r, err := OpenJournal(path, "schema-a", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Done() != 2 {
		t.Fatalf("resumed journal holds %d cells, want 2", r.Done())
	}
	exec := experiment.NewExecutor(1)
	if n := r.PrimeExecutor(exec); n != 2 || exec.Primed() != 2 {
		t.Fatalf("primed %d cells (executor says %d), want 2", n, exec.Primed())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailTolerated: a file killed mid-append ends in half a
// record; resume keeps everything before the tear and drops the tear.
func TestJournalTornTailTolerated(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path, "schema-a", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Completed("k0", wire.Result{Cycles: 10})
	j.Completed("k1", wire.Result{Cycles: 11})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","key":"k2","resu`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	r, err := OpenJournal(path, "schema-a", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Done() != 2 {
		t.Fatalf("resumed journal holds %d cells, want the 2 before the torn tail", r.Done())
	}
}

// TestJournalRefusals: resume fails cleanly on a missing file, an empty
// file, a foreign format, and a schema mismatch — each with an error
// that says what to do.
func TestJournalRefusals(t *testing.T) {
	if _, err := OpenJournal(filepath.Join(t.TempDir(), "absent"), "schema-a", true); err == nil ||
		!strings.Contains(err.Error(), "-resume") {
		t.Fatalf("missing-file resume: %v", err)
	}

	empty := tmpJournal(t)
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(empty, "schema-a", true); err == nil ||
		!strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty-file resume: %v", err)
	}

	foreign := tmpJournal(t)
	if err := os.WriteFile(foreign, []byte(`{"journal":"other-tool/3","schema":"schema-a"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(foreign, "schema-a", true); err == nil ||
		!strings.Contains(err.Error(), "not a") {
		t.Fatalf("foreign-format resume: %v", err)
	}

	mismatch := tmpJournal(t)
	j, err := OpenJournal(mismatch, "schema-old", false)
	if err != nil {
		t.Fatal(err)
	}
	j.Completed("k0", wire.Result{Cycles: 1})
	_ = j.Close()
	if _, err := OpenJournal(mismatch, "schema-new", true); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema-mismatch resume: %v", err)
	}
}

// TestJournalCompaction: repeated resumes rewrite the file to header +
// one line per completed cell, so the journal's size is bounded by the
// sweep, not by its crash count.
func TestJournalCompaction(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournal(path, "schema-a", false)
	if err != nil {
		t.Fatal(err)
	}
	// Several plan records and interleaved completions, as repeated
	// crashed runs would leave behind.
	for pass := 0; pass < 3; pass++ {
		j.Plan([]string{"k0", "k1", "k2", "k3"})
		j.Completed(fmt.Sprintf("k%d", pass), wire.Result{Cycles: uint64(pass)})
	}
	_ = j.Close()

	r, err := OpenJournal(path, "schema-a", true)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // header + 3 done records
		t.Fatalf("compacted journal has %d lines, want 4:\n%s", len(lines), raw)
	}
	if !strings.Contains(lines[0], journalFormat) {
		t.Fatalf("compacted journal lost its header: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, `"op":"done"`) {
			t.Fatalf("compacted journal kept a non-done line: %q", l)
		}
	}
}

// TestAttachJournalLifecycle: the drivers' one-call plumbing — nil
// without a path, journal installed as the executor sink with the plan
// recorded, and a later resume primed from what the first run completed.
func TestAttachJournalLifecycle(t *testing.T) {
	if j := AttachJournal("test", experiment.NewExecutor(1), "", false); j != nil {
		t.Fatal("AttachJournal without a path returned a journal")
	}

	path := tmpJournal(t)
	exec := experiment.NewExecutor(1)
	p := experiment.NewPlanner()
	experiment.NewSessionWith(experiment.MicroScale(), p).Figure1()
	exec.Plan(p)

	j := AttachJournal("test", exec, path, false)
	if j == nil {
		t.Fatal("AttachJournal returned nil with a path set")
	}
	keys := exec.PlannedKeys()
	j.Completed(keys[0], wire.Result{Cycles: 5})
	j.Completed(keys[1], wire.Result{Cycles: 6})
	_ = j.Close()

	resumed := experiment.NewExecutor(1)
	resumed.Plan(p)
	j2 := AttachJournal("test", resumed, path, true)
	defer j2.Close()
	if resumed.Primed() != 2 {
		t.Fatalf("resumed executor primed %d cells, want 2", resumed.Primed())
	}
	if j2.Done() != 2 {
		t.Fatalf("resumed journal holds %d cells, want 2", j2.Done())
	}
}

// TestJournalNonCanonicalResultReSimulates: a done record whose result
// is not in canonical form (hand-edited, or from a writer that does
// not produce the canonical bytes) is not primed, so its cell
// re-simulates on resume; the canonical record still primes.
func TestJournalNonCanonicalResultReSimulates(t *testing.T) {
	scale := experiment.MicroScale()
	pair := workload.SingleCorePairs()[0]
	overhead := func(s *experiment.Session) {
		s.SingleCoreOverhead(core.OptionsFor(core.XOR), pair, scale.TimerPeriods[0])
	}
	p := experiment.NewPlanner()
	overhead(experiment.NewSessionWith(scale, p))
	exec := experiment.NewExecutor(1)
	exec.Plan(p)
	keys := exec.PlannedKeys()
	if len(keys) != 2 {
		t.Fatalf("planned %d cells, want a baseline and a mechanism cell", len(keys))
	}

	canon := string(wire.Result{Cycles: 5}.Encode())
	done := [][2]string{ // key, result
		{keys[0], canon},
		{keys[1], strings.Replace(canon, `,"`, `, "`, 1)}, // whitespace
		// Unplanned keys: primed if they decoded, never simulated.
		{"reordered", "{" + strings.TrimSuffix(strings.TrimPrefix(canon, `{"cycles":5,`), "}") + `,"cycles":5}`},
		{"case", strings.Replace(canon, `"cycles"`, `"Cycles"`, 1)},
	}
	lines := []string{fmt.Sprintf(`{"journal":%q,"schema":%q}`, journalFormat, experiment.SchemaVersion())}
	for _, d := range done {
		lines = append(lines, fmt.Sprintf(`{"op":"done","key":%q,"result":%s}`, d[0], d[1]))
	}
	path := tmpJournal(t)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := experiment.NewExecutor(1)
	resumed.Plan(p)
	j := AttachJournal("test", resumed, path, true)
	defer j.Close()
	if j.Done() != len(done) {
		t.Fatalf("resumed journal holds %d cells, want %d", j.Done(), len(done))
	}
	if resumed.Primed() != 1 {
		t.Fatalf("resumed executor primed %d cells, want only the canonical one", resumed.Primed())
	}
	overhead(experiment.NewSessionWith(scale, resumed))
	if err := resumed.Err(); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Runs(); got != 1 {
		t.Fatalf("resumed sweep simulated %d cells, want 1 (the non-canonical record's)", got)
	}
}
