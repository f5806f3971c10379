package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"xorbp/internal/experiment"
)

// The benchmark's inputs come from a small set of recorded seeds whose
// rendered tables and deterministic counts are committed in
// digests.json: a run maps its --seed onto them, so every run checks
// its output against a recorded answer. A change that deliberately
// alters simulated behaviour re-records the file (--record-digests) as
// a benchmark change of its own.
const (
	evalSeeds   = 12 // recorded MicroScale evaluation seeds 1..12
	attackSeeds = 24 // recorded QuickConfig sweep seeds 1..24
)

// evalSeed maps a run seed onto a recorded evaluation seed.
func evalSeed(n uint64) uint64 { return 1 + n%evalSeeds }

// attackSeed maps a run seed and round onto a recorded sweep seed, so
// the rounds of one run walk distinct seeds.
func attackSeed(n uint64, round int) uint64 { return 1 + (n+uint64(round))%attackSeeds }

// reference is digests.json.
type reference struct {
	// Scale names the evaluation scale the digests were rendered at.
	Scale string `json:"scale"`
	// Eval and Attack are keyed by decimal seed.
	Eval   map[string]seedRef `json:"eval"`
	Attack map[string]seedRef `json:"attack"`
}

// seedRef is one recorded seed's output.
type seedRef struct {
	// Tables maps each table to the SHA-256 of its rendered text.
	Tables map[string]string `json:"tables"`
	// Counts are the seed's deterministic counts: the executor's, and
	// for the evaluation the layer harness's simulation counts.
	Counts map[string]uint64 `json:"counts"`
}

func loadReference(path string) (*reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	for s := uint64(1); s <= evalSeeds; s++ {
		if _, ok := ref.Eval[strconv.FormatUint(s, 10)]; !ok {
			return nil, fmt.Errorf("%s: no digests for evaluation seed %d", path, s)
		}
	}
	for s := uint64(1); s <= attackSeeds; s++ {
		if _, ok := ref.Attack[strconv.FormatUint(s, 10)]; !ok {
			return nil, fmt.Errorf("%s: no digests for sweep seed %d", path, s)
		}
	}
	return &ref, nil
}

func (r *reference) eval(seed uint64) seedRef   { return r.Eval[strconv.FormatUint(seed, 10)] }
func (r *reference) attack(seed uint64) seedRef { return r.Attack[strconv.FormatUint(seed, 10)] }

// rendered is one table's rendered text.
type rendered struct {
	name string
	text string
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digests maps each rendered table to its digest.
func digests(tabs []rendered) map[string]string {
	m := make(map[string]string, len(tabs))
	for _, t := range tabs {
		m[t.name] = digest(t.text)
	}
	return m
}

// mismatched lists the tables whose digest differs from want (or that
// want lacks), plus any table want names that was not rendered.
func mismatched(tabs []rendered, want map[string]string) []string {
	var bad []string
	seen := make(map[string]bool, len(tabs))
	for _, t := range tabs {
		seen[t.name] = true
		if w, ok := want[t.name]; !ok || w != digest(t.text) {
			bad = append(bad, t.name)
		}
	}
	for name := range want {
		if !seen[name] {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// failedCells returns the wire keys of the cells that count as failed
// ops in one pass: every cell behind a table whose digest mismatches,
// every planned cell that resolved to no record (a backend error), and
// every performance cell whose result is zero. behind lists a table's
// cells; it is only consulted for mismatching tables.
func failedCells(tabs []rendered, want map[string]string, behind func(table string) []string,
	planned []string, recs map[string]experiment.RunRecord, perf bool) map[string]bool {
	failed := make(map[string]bool)
	for _, name := range mismatched(tabs, want) {
		for _, k := range behind(name) {
			failed[k] = true
		}
	}
	for _, k := range planned {
		r, ok := recs[k]
		if !ok || (perf && (r.Cycles == 0 || r.MPKI == 0)) {
			failed[k] = true
		}
	}
	return failed
}

// compareCounts checks deterministic counts against their recorded
// values; a count recorded but not produced, or produced with another
// value, is an error naming every difference.
func compareCounts(what string, got, want map[string]uint64) error {
	var diffs []string
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			diffs = append(diffs, fmt.Sprintf("%s=%d (recorded %d)", k, got[k], want[k]))
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s=%d (not recorded)", k, got[k]))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s: %v", what, diffs)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// subset returns the entries of m named in keys.
func subset(m map[string]uint64, keys ...string) map[string]uint64 {
	out := make(map[string]uint64, len(keys))
	for _, k := range keys {
		if v, ok := m[k]; ok {
			out[k] = v
		}
	}
	return out
}
