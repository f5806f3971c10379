package runcache

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// GCOptions bounds a garbage-collection pass over a cache directory.
type GCOptions struct {
	// MaxAge removes entries not modified within the window (0 disables
	// the age bound). Quarantined ".corrupt" files age out the same way.
	MaxAge time.Duration
	// MaxBytes caps the total size of live entries after the pass;
	// oldest entries are removed first until the cap holds (0 disables
	// the size bound).
	MaxBytes int64
	// Now anchors age computation; the zero value means time.Now().
	Now time.Time
}

// GCReport summarizes one garbage-collection pass.
type GCReport struct {
	// SchemaDirsRemoved counts superseded per-schema subdirectories
	// removed wholesale.
	SchemaDirsRemoved int
	// EntriesRemoved counts files removed from live schema directories
	// (aged out, evicted for size, or quarantined leftovers).
	EntriesRemoved int
	// BytesFreed is the total size removed, across both categories.
	BytesFreed int64
	// EntriesKept / BytesKept describe what remains in live schema
	// directories.
	EntriesKept int
	BytesKept   int64
}

func (r GCReport) String() string {
	return fmt.Sprintf("removed %d superseded schema dir(s) and %d entr(ies), freed %s; kept %d entr(ies), %s",
		r.SchemaDirsRemoved, r.EntriesRemoved, human(r.BytesFreed), r.EntriesKept, human(r.BytesKept))
}

// human renders a byte count for the report line.
func human(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// GC garbage-collects the cache directory rooted at dir.
//
// Per-schema subdirectories whose schema is not in keepSchemas are
// superseded — a binary writing that encoding no longer exists — and
// are removed wholesale. Within the kept schemas, entries older than
// MaxAge are removed, then the oldest survivors are evicted until the
// directory fits MaxBytes. The pass is safe against concurrent readers
// and writers: removal uses the same per-file granularity as the
// store's own writes, so the worst case for a racing process is a
// cache miss, never a torn entry.
//
// A missing dir is not an error (there is nothing to collect).
func GC(dir string, keepSchemas []string, o GCOptions) (GCReport, error) {
	var rep GCReport
	if o.Now.IsZero() {
		o.Now = time.Now() //bpvet:allow GC age cutoff; tests inject a fixed Now, results never see it
	}
	keep := make(map[string]bool, len(keepSchemas))
	for _, s := range keepSchemas {
		keep[schemaID(s)] = true
	}
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("runcache: %w", err)
	}

	// liveEntry is a survivor candidate for the age/size bounds.
	type liveEntry struct {
		path string
		size int64
		mod  time.Time
	}
	var live []liveEntry

	for _, de := range des {
		if !de.IsDir() || !strings.HasPrefix(de.Name(), "v-") {
			// Foreign files at the root (and anything not schema-shaped)
			// are not ours to collect.
			continue
		}
		sub := filepath.Join(dir, de.Name())
		if !keep[de.Name()] {
			freed, err := dirSize(sub)
			if err != nil {
				return rep, err
			}
			if err := os.RemoveAll(sub); err != nil {
				return rep, fmt.Errorf("runcache: %w", err)
			}
			rep.SchemaDirsRemoved++
			rep.BytesFreed += freed
			continue
		}
		files, err := os.ReadDir(sub)
		if err != nil {
			return rep, fmt.Errorf("runcache: %w", err)
		}
		for _, fe := range files {
			if fe.IsDir() {
				continue
			}
			info, err := fe.Info()
			if err != nil {
				continue // vanished under a concurrent process
			}
			path := filepath.Join(sub, fe.Name())
			// In-progress temp files from live writers are skipped unless
			// plainly abandoned (older than the age bound).
			isTmp := strings.HasPrefix(fe.Name(), ".tmp-")
			aged := o.MaxAge > 0 && o.Now.Sub(info.ModTime()) > o.MaxAge
			if isTmp && !aged {
				continue
			}
			if aged {
				if os.Remove(path) == nil {
					rep.EntriesRemoved++
					rep.BytesFreed += info.Size()
				}
				continue
			}
			live = append(live, liveEntry{path: path, size: info.Size(), mod: info.ModTime()})
		}
	}

	var total int64
	for _, le := range live {
		total += le.size
	}
	if o.MaxBytes > 0 && total > o.MaxBytes {
		// Evict oldest-first until the cap holds.
		sort.Slice(live, func(i, j int) bool { return live[i].mod.Before(live[j].mod) })
		for i := range live {
			if total <= o.MaxBytes {
				break
			}
			if os.Remove(live[i].path) == nil {
				rep.EntriesRemoved++
				rep.BytesFreed += live[i].size
				total -= live[i].size
				live[i].size = -1 // mark evicted
			}
		}
		kept := live[:0]
		for _, le := range live {
			if le.size >= 0 {
				kept = append(kept, le)
			}
		}
		live = kept
	}
	rep.EntriesKept = len(live)
	rep.BytesKept = total
	return rep, nil
}

// dirSize sums the file sizes under a directory (one level of nesting
// is all the store ever creates, but walk defensively).
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // vanished; size it as zero
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("runcache: %w", err)
	}
	return n, nil
}

// StartGC garbage-collects the cache directory on a fixed interval, so
// a long-lived worker bounds its own disk use instead of waiting for a
// manual `bpsim -cache-gc`. The schemas list names the live encodings
// whose subdirectories survive (superseded schema generations are
// removed wholesale); opts carries the same age/size bounds the manual
// sweep takes. Reports are written to log (one line per pass; nil
// discards them). The returned stop function ends the loop; it does not
// interrupt a pass already in flight.
//
// Deleting entries under a store another process has open is safe by
// the cache's design: loaded entries are memory-resident, content is
// immutable, and a vanished entry only costs a future re-simulation.
func StartGC(dir string, schemas []string, interval time.Duration, opts GCOptions, log io.Writer) (stop func()) {
	if interval <= 0 || dir == "" {
		return func() {}
	}
	done := make(chan struct{})
	pass := func() {
		rep, err := GC(dir, schemas, opts)
		if log == nil {
			return
		}
		if err != nil {
			fmt.Fprintf(log, "cache-gc %s: %v\n", dir, err) //bpvet:allow best-effort GC telemetry to the worker log
			return
		}
		fmt.Fprintf(log, "cache-gc %s: %s\n", dir, rep) //bpvet:allow best-effort GC telemetry to the worker log
	}
	go func() {
		// One pass up front: a worker restarted more often than the
		// interval must still shed superseded schema directories.
		pass()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			pass()
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
