package experiment

import (
	"context"
	"runtime/pprof"
	"testing"

	"xorbp/internal/cpu"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// evalTables are the simulated tables of `bpsim -exp all`, in its
// order; the static tables resolve no simulation and are left out.
var evalTables = []func(*Session) *Table{
	(*Session).Figure1, (*Session).Figure2, (*Session).Figure3,
	(*Session).Figure7, (*Session).Figure8, (*Session).Figure9,
	(*Session).Figure10, (*Session).RekeySweep, (*Session).Table4,
	(*Session).MPKI, (*Session).BTBResidency,
}

// synthBackend answers every spec with a result shaped like a real one
// (an SMT spec carries its sibling threads' stats) without simulating,
// so a run cache of the whole grid fills in milliseconds.
type synthBackend struct{}

func (synthBackend) Run(_ context.Context, s wire.Spec) (RunResult, error) {
	ts := cpu.ThreadStats{
		Instructions: 1_000_000, Branches: 180_000, CondBranches: 150_000,
		DirMisp: 4_321, EffMisp: 4_000, TargMisp: 321, DecodeRedir: 77, Syscalls: 12,
	}
	r := RunResult{Cycles: 1_234_567, Target: ts, PrivSwitches: 24, CtxSwitches: 3, BTBHitRate: 0.97}
	for i := 1; i < s.Cfg.HWThreads; i++ {
		r.Others = append(r.Others, ts)
	}
	return r, nil
}

// warmPass is one bpsim-style pass over the run-cache directory dir:
// open the cache, plan the micro grid, then resolve and render every
// evaluation table through an executor over backend. Each phase runs
// under a pprof "phase" label (open, plan, resolve, render), so a CPU
// profile of the benchmark splits by phase with `go tool pprof -tags`.
func warmPass(tb testing.TB, dir string, backend Backend) *Executor {
	phase := func(name string, f func()) {
		pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { f() })
	}
	var st *runcache.Store
	phase("open", func() {
		var err error
		if st, err = runcache.Open(dir, SchemaVersion()); err != nil {
			tb.Fatal(err)
		}
	})
	scale := MicroScale()
	e := NewExecutorWith(1, backend)
	phase("plan", func() {
		planner := NewPlanner()
		ps := NewSessionWith(scale, planner)
		for _, table := range evalTables {
			table(ps)
		}
		e.SetStore(st)
		e.Plan(planner)
	})
	s := NewSessionWith(scale, e)
	for _, table := range evalTables {
		var t *Table
		phase("resolve", func() { t = table(s) })
		phase("render", func() { _ = t.Render() })
	}
	return e
}

// BenchmarkWarmPass measures one warm re-render of the micro grid from
// a populated run-cache directory: Open, planning, and plan-then-replay
// of every cell plus rendering. The set-up pass fills the cache through
// synthBackend; a measured pass that dispatches anything fails.
//
//	go test ./internal/experiment -run '^$' -bench WarmPass -benchtime 200x \
//		-o /tmp/experiment.test -cpuprofile /tmp/warm.prof
//	go tool pprof -tags /tmp/experiment.test /tmp/warm.prof
func BenchmarkWarmPass(b *testing.B) {
	dir := b.TempDir()
	cells := warmPass(b, dir, synthBackend{}).Runs()
	for b.Loop() {
		e := warmPass(b, dir, failingBackend{})
		if err := e.Err(); err != nil || e.Runs() != 0 || uint64(e.Replays()) != cells {
			b.Fatalf("warm pass: %d runs, %d of %d replayed, err %v", e.Runs(), e.Replays(), cells, err)
		}
	}
}
