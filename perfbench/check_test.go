package main

import (
	"reflect"
	"sort"
	"testing"

	"xorbp/internal/experiment"
)

func keysOf(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// A table whose rendered text differs from its recorded digest fails
// every cell behind it; errors (no record) and zero results fail their
// own cell.
func TestPerturbedTableFailsItsCells(t *testing.T) {
	tabs := []rendered{{"fig1", "Figure 1\n+0.10%\n"}, {"fig2", "Figure 2\n+0.20%\n"}}
	want := digests(tabs)
	behind := map[string][]string{"fig1": {"k1", "k2"}, "fig2": {"k2", "k3"}}
	lookup := func(table string) []string { return behind[table] }
	planned := []string{"k1", "k2", "k3", "k4"}
	recs := map[string]experiment.RunRecord{
		"k1": {Cycles: 10, MPKI: 1}, "k2": {Cycles: 20, MPKI: 2},
		"k3": {Cycles: 30, MPKI: 3}, "k4": {Cycles: 40, MPKI: 4},
	}

	if got := failedCells(tabs, want, lookup, planned, recs, true); len(got) != 0 {
		t.Fatalf("matching tables: failed %v, want none", keysOf(got))
	}

	perturbed := []rendered{tabs[0], {"fig2", "Figure 2\n+0.21%\n"}}
	got := failedCells(perturbed, want, lookup, planned, recs, true)
	if w := []string{"k2", "k3"}; !reflect.DeepEqual(keysOf(got), w) {
		t.Fatalf("perturbed fig2: failed %v, want %v", keysOf(got), w)
	}

	missing := map[string]experiment.RunRecord{"k1": recs["k1"], "k2": recs["k2"], "k3": {}}
	got = failedCells(tabs, want, lookup, planned, missing, true)
	if w := []string{"k3", "k4"}; !reflect.DeepEqual(keysOf(got), w) {
		t.Fatalf("zero result and missing record: failed %v, want %v", keysOf(got), w)
	}

	// Attack cells legitimately measure a zero success rate.
	if got := failedCells(tabs, want, lookup, planned[:3], missing, false); len(got) != 0 {
		t.Fatalf("attack cells: failed %v, want none", keysOf(got))
	}

	if got := mismatched(tabs[:1], want); !reflect.DeepEqual(got, []string{"fig2"}) {
		t.Fatalf("unrendered table: mismatched %v, want [fig2]", got)
	}
}

func TestCompareCounts(t *testing.T) {
	want := map[string]uint64{"cpu.kinst": 10, "core.flushes": 2}
	if err := compareCounts("x", map[string]uint64{"cpu.kinst": 10, "core.flushes": 2}, want); err != nil {
		t.Fatal(err)
	}
	if err := compareCounts("x", map[string]uint64{"cpu.kinst": 11, "core.flushes": 2}, want); err == nil {
		t.Fatal("a changed count passed")
	}
	if err := compareCounts("x", map[string]uint64{"cpu.kinst": 10}, want); err == nil {
		t.Fatal("a missing count passed")
	}
}

func TestTailPercentile(t *testing.T) {
	vs := make([]float64, 648)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	// p99 leaves 6.48 samples beyond it; p98 leaves 12.96.
	if v, p := tailOf(vs); p != 98 || v != 636 {
		t.Fatalf("tailOf(648 samples) = %v at p%v, want 636 at p98", v, p)
	}
	if _, p := tailOf(vs[:15]); p != 50 {
		t.Fatalf("tailOf(15 samples) at p%v, want the median", p)
	}
}
