package experiment

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// cellCounts is an executor's cell bookkeeping at one moment: the
// public counters plus the ETA backlog and the cells in flight.
type cellCounts struct {
	planned, done, skipped, replays, backlog, inflight int
	runs                                               uint64
}

// countsOf reads e's counters and checks them against a recount of its
// cells: the done, skipped and warm counters must equal the number of
// cells in each state.
func countsOf(t *testing.T, e *Executor) cellCounts {
	t.Helper()
	c := cellCounts{
		planned: e.Planned(), done: e.Done(), skipped: e.Skipped(),
		replays: e.Replays(), runs: e.Runs(),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	c.backlog = e.backlogLocked()
	var done, skipped, warm int
	for _, cl := range e.cells {
		switch cl.state {
		case cellDone:
			done++
		case cellSkipped:
			skipped++
		case cellInflight:
			c.inflight++
		}
		if cl.warm {
			warm++
		}
	}
	if done != e.done || skipped != e.skipped || warm != e.warm {
		t.Fatalf("counters done/skipped/warm = %d/%d/%d, cells hold %d/%d/%d",
			e.done, e.skipped, e.warm, done, skipped, warm)
	}
	return c
}

// wantCounts fails unless e's cell bookkeeping is exactly want.
func wantCounts(t *testing.T, stage string, e *Executor, want cellCounts) {
	t.Helper()
	if got := countsOf(t, e); got != want {
		t.Fatalf("%s: counts %+v, want %+v", stage, got, want)
	}
}

// TestCellsPlanThenReplay follows a grid through Plan and a batch over
// a store holding all but one of its cells: the stored cells replay,
// the one cold cell simulates, and the backlog counts only that cell.
func TestCellsPlanThenReplay(t *testing.T) {
	dir := t.TempDir()
	specs := keySpecs()
	n := len(specs)
	open := func() *Executor {
		st, err := runcache.Open(dir, SchemaVersion())
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutorWith(2, echoBackend{})
		e.SetStore(st)
		return e
	}
	open().RunBatch(specs[1:])

	planner := NewPlanner()
	planner.RunBatch(append(specs, specs[0])) // a repeat plans once
	e := open()
	if got := e.Plan(planner); got != n {
		t.Fatalf("Plan = %d, want %d", got, n)
	}
	wantCounts(t, "planned", e, cellCounts{planned: n, backlog: 1})
	if got, want := e.PlannedKeys(), planner.PlannedKeys(); len(got) != n || !reflect.DeepEqual(got, want) {
		t.Fatalf("PlannedKeys = %d keys, want the planner's %d", len(got), len(want))
	}

	res := e.RunBatch(specs)
	wantCounts(t, "resolved", e, cellCounts{planned: n, done: n, replays: n - 1, runs: 1})
	for i, r := range res {
		if r.Cycles != 1 {
			t.Fatalf("spec %d resolved to %+v", i, r)
		}
	}
	e.RunBatch(specs) // memo hits only
	wantCounts(t, "repeated", e, cellCounts{planned: n, done: n, replays: n - 1, runs: 1})
}

// TestCellsShardSkip: a sharded executor resolves its own cells and
// skips the rest for good; a repeated batch neither re-examines nor
// re-counts the skipped cells.
func TestCellsShardSkip(t *testing.T) {
	specs := keySpecs()
	n := len(specs)
	planner := NewPlanner()
	planner.RunBatch(specs)
	e := NewExecutorWith(1, echoBackend{})
	e.SetShard(0, 2)
	e.Plan(planner)
	wantCounts(t, "planned", e, cellCounts{planned: n, backlog: n})

	first := e.RunBatch(specs)
	got := countsOf(t, e)
	if got.skipped == 0 || got.done == 0 || got.done+got.skipped != n ||
		got.backlog != 0 || got.runs != uint64(got.done) || got.inflight != 0 {
		t.Fatalf("shard 0/2 of %d cells: counts %+v", n, got)
	}
	zeros := 0
	for _, r := range first {
		if r.Cycles == 0 {
			zeros++
		}
	}
	if zeros != got.skipped {
		t.Fatalf("%d zero results for %d skipped cells", zeros, got.skipped)
	}
	if again := e.RunBatch(specs); !reflect.DeepEqual(again, first) {
		t.Fatal("a repeated batch resolved differently")
	}
	wantCounts(t, "repeated", e, got)
}

// gateBackend parks every Run until gate closes, announcing each on
// entered first; it then fails with err, or answers like echoBackend
// when err is nil.
type gateBackend struct {
	entered chan struct{}
	gate    chan struct{}
	err     error
}

func newGateBackend(err error) gateBackend {
	// entered has room for every Run a test starts, so announcing never
	// blocks a Run the test has stopped waiting for.
	return gateBackend{entered: make(chan struct{}, 8), gate: make(chan struct{}), err: err}
}

func (g gateBackend) Run(context.Context, wire.Spec) (RunResult, error) {
	g.entered <- struct{}{}
	<-g.gate
	if g.err != nil {
		return RunResult{}, g.err
	}
	return RunResult{Cycles: 1}, nil
}

// await waits for k more Runs to enter the backend.
func (g gateBackend) await(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d runs never entered the backend", k-i, k)
		}
	}
}

// runAsync starts RunBatch(specs) on its own goroutine.
func runAsync(e *Executor, specs []runSpec) <-chan []RunResult {
	out := make(chan []RunResult, 1)
	go func() { out <- e.RunBatch(specs) }()
	return out
}

// result waits for a batch started by runAsync.
func result(t *testing.T, ch <-chan []RunResult) []RunResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("batch hung")
		return nil
	}
}

// TestCellsConcurrentBatchesShareSpec: batch B needs a spec batch A is
// simulating. B claims only its own other spec and waits on A's claim;
// both read the one simulated result.
func TestCellsConcurrentBatchesShareSpec(t *testing.T) {
	s := keySpecs()[:3]
	g := newGateBackend(nil)
	e := NewExecutorWith(4, g)
	a := runAsync(e, []runSpec{s[0], s[1]})
	g.await(t, 2) // s[0] and s[1] are in flight under A
	b := runAsync(e, []runSpec{s[1], s[2]})
	g.await(t, 1) // s[2] dispatched: B is past its claims, waiting on s[1]
	wantCounts(t, "in flight", e, cellCounts{planned: 3, backlog: 3, inflight: 3})
	close(g.gate)
	ra, rb := result(t, a), result(t, b)
	if ra[1].Cycles != 1 || !reflect.DeepEqual(rb[0], ra[1]) || rb[1].Cycles != 1 {
		t.Fatalf("shared spec resolved to %+v and %+v", ra[1], rb[0])
	}
	wantCounts(t, "resolved", e, cellCounts{planned: 3, done: 3, runs: 3})
}

// TestCellsBackendFailureReleasesWaiters: when the batch that claimed a
// spec fails, a concurrent batch waiting on that spec is released to a
// zero result instead of hanging, and the failed cells return to the
// backlog unresolved.
func TestCellsBackendFailureReleasesWaiters(t *testing.T) {
	s := keySpecs()[:2]
	g := newGateBackend(errors.New("fleet unreachable"))
	e := NewExecutorWith(2, g)
	a := runAsync(e, s[:1])
	g.await(t, 1)
	b := runAsync(e, []runSpec{s[0], s[1]})
	g.await(t, 1) // B is past its claims, waiting on A's s[0]
	close(g.gate)
	for _, res := range [][]RunResult{result(t, a), result(t, b)} {
		for i, r := range res {
			if r.Cycles != 0 {
				t.Fatalf("failed spec %d resolved to %+v", i, r)
			}
		}
	}
	if e.Err() == nil {
		t.Fatal("backend failure did not poison the executor")
	}
	wantCounts(t, "failed", e, cellCounts{planned: 2, backlog: 2})
}
