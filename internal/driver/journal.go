package driver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"xorbp/internal/experiment"
	"xorbp/internal/wire"
)

// journalFormat versions the sweep-journal file format; OpenJournal
// refuses other versions rather than guessing at their records.
const journalFormat = "xorbp-sweep/1"

// Journal is the crash-safe sweep WAL behind `-journal`/`-resume`:
// an append-only JSON-lines file recording the planned wire keys and,
// as they resolve, each completed key with its canonical result bytes.
// Appends are fsynced, so a SIGKILL loses at most the in-flight cells;
// a torn final line (killed mid-append) is tolerated and dropped on
// resume. Because `done` records carry the result itself, resume is
// self-contained: it needs neither the run cache nor the fleet that
// computed the originals — bpsim -resume primes the executor from the
// journal and simulates only the remainder, in every topology
// (in-process or pull leader).
//
// Journal implements experiment.JournalSink.
type Journal struct {
	path   string
	schema string

	mu   sync.Mutex
	f    *os.File
	done map[string]json.RawMessage // completed key → canonical result
	// appendErr is sticky: after a failed append the journal stops
	// claiming durability (Err reports it at end of run) but the sweep
	// itself continues — a broken journal must not poison results.
	appendErr error
}

// journalLine is the on-disk record: the first line is a header
// (Journal/Schema set), every later line one operation.
type journalLine struct {
	// Journal/Schema stamp the header line.
	Journal string `json:"journal,omitempty"`
	Schema  string `json:"schema,omitempty"`
	// Op is "plan" or "done" on operation lines.
	Op     string          `json:"op,omitempty"`
	Keys   []string        `json:"keys,omitempty"`   // plan: planned wire keys
	Key    string          `json:"key,omitempty"`    // done: resolved wire key
	Result json.RawMessage `json:"result,omitempty"` // done: canonical result bytes
}

// OpenJournal opens (resume=true) or starts (resume=false) the sweep
// journal at path under the given wire schema. Resuming replays the
// existing file — refusing a missing file, a foreign format, or a
// schema mismatch with a clear error, and dropping a torn tail line —
// then compacts it in place (write-temp + atomic rename) so repeated
// resumes don't grow the file without bound.
func OpenJournal(path, schema string, resume bool) (*Journal, error) {
	j := &Journal{path: path, schema: schema, done: make(map[string]json.RawMessage)}
	if !resume {
		return j, j.rotateLocked()
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: -resume: %w (start without -resume to begin a new sweep)", err)
	}
	if err := j.replay(raw); err != nil {
		return nil, err
	}
	// Compact: the rewritten file carries the header plus one done
	// record per completed cell, atomically replacing the old log.
	if err := j.rotateLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// replay loads the done set from a journal's raw bytes.
func (j *Journal) replay(raw []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalLine
		if json.Unmarshal(line, &rec) != nil {
			// A torn line is a crash mid-append; everything before it
			// already parsed, so stop here and keep what we have.
			break
		}
		if first {
			first = false
			if rec.Journal != journalFormat {
				return fmt.Errorf("journal: %s is not a %s journal", j.path, journalFormat)
			}
			if rec.Schema != j.schema {
				return fmt.Errorf("journal: %s was written under schema %q, this build runs %q — rebuild one side or start a new journal",
					j.path, rec.Schema, j.schema)
			}
			continue
		}
		if rec.Op == "done" && rec.Key != "" && len(rec.Result) > 0 {
			j.done[rec.Key] = rec.Result
		}
	}
	if first {
		return fmt.Errorf("journal: %s is empty — start without -resume to begin a new sweep", j.path)
	}
	return nil
}

// rotateLocked rewrites the journal as header + compacted done records
// via write-temp + atomic rename, then reopens it for appending.
// Callers hold no lock during Open; later rotation is not exposed —
// compaction happens once per resume, which bounds growth at one
// sweep's records.
func (j *Journal) rotateLocked() error {
	dir := filepath.Dir(j.path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	writeLine := func(rec journalLine) {
		if err == nil {
			var raw []byte
			if raw, err = json.Marshal(rec); err == nil {
				raw = append(raw, '\n')
				_, err = w.Write(raw)
			}
		}
	}
	writeLine(journalLine{Journal: journalFormat, Schema: j.schema})
	keys := make([]string, 0, len(j.done))
	for k := range j.done {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeLine(journalLine{Op: "done", Key: k, Result: j.done[k]})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.f != nil {
		_ = j.f.Close()
	}
	j.f = f
	return nil
}

// append writes one fsynced record line. Failures are sticky but
// non-fatal: the sweep's results don't depend on the journal.
func (j *Journal) append(rec journalLine) {
	if j.appendErr != nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err == nil {
		raw = append(raw, '\n')
		if _, err = j.f.Write(raw); err == nil {
			err = j.f.Sync()
		}
	}
	if err != nil {
		j.appendErr = fmt.Errorf("journal: %w", err)
	}
}

// Plan records the sweep's planned wire keys — the denominator a
// resumed run checks its remainder against, and the queue state a
// restarted pull leader re-derives (planned minus done is exactly what
// gets resubmitted).
func (j *Journal) Plan(keys []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(journalLine{Op: "plan", Keys: keys})
}

// Completed appends one resolved cell (idempotent: a key already
// journaled — e.g. primed from this very journal — is not rewritten).
// Implements experiment.JournalSink.
func (j *Journal) Completed(key string, res experiment.RunResult) {
	if key == "" {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.done[key]; dup {
		return
	}
	enc := res.Encode()
	j.done[key] = json.RawMessage(enc)
	j.append(journalLine{Op: "done", Key: key, Result: json.RawMessage(enc)})
}

// Done returns how many completed cells the journal holds.
func (j *Journal) Done() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// PrimeExecutor pre-resolves every journaled cell on the executor
// (experiment.Executor.Prime) and returns how many were primed. Call
// before the first batch runs.
func (j *Journal) PrimeExecutor(exec *experiment.Executor) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for key, raw := range j.done {
		res, err := wire.DecodeResult(raw)
		if err != nil {
			// A record that no longer decodes under this schema cannot
			// be replayed; the cell will simply re-simulate.
			continue
		}
		exec.Prime(key, res)
		n++
	}
	return n
}

// Err reports the sticky append failure, if any — surfaced at end of
// run so a sweep whose journal went bad is not silently unresumable.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendErr
}

// Close flushes nothing (appends are already fsynced) and releases the
// file handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	f := j.f
	j.f = nil
	j.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}

// AttachJournal is the drivers' one-call journal plumbing: opens (or
// resumes) the journal, primes the executor from its completed cells,
// records the planned grid, and installs the journal as the executor's
// sink. Call after planning (exec.Plan) and before the first batch.
// Returns nil when path is empty; exits on misuse or an unreadable
// journal — resuming from a journal that cannot be read must not
// silently re-simulate a week of work.
func AttachJournal(prog string, exec *experiment.Executor, path string, resume bool) *Journal {
	if path == "" {
		if resume {
			fatal(prog, 2, "-resume replays a sweep journal; it needs -journal FILE")
		}
		return nil
	}
	j, err := OpenJournal(path, experiment.SchemaVersion(), resume)
	if err != nil {
		fatal(prog, 1, "%v", err)
	}
	if resume {
		n := j.PrimeExecutor(exec)
		fmt.Fprintf(os.Stderr, "%s: resume: %d completed cells replayed from %s\n", prog, n, path)
	}
	j.Plan(exec.PlannedKeys())
	exec.SetJournal(j)
	return j
}
