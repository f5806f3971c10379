package driver

import (
	"strings"
	"testing"
	"time"

	"xorbp/internal/experiment"
)

func TestParseShardUnsharded(t *testing.T) {
	i, n := ParseShard("test", "", false)
	if i != 0 || n != 1 {
		t.Fatalf("unsharded = %d/%d, want 0/1", i, n)
	}
}

func TestConnectLocal(t *testing.T) {
	conn := Connect(ConnectOptions{Prog: "test", Workers: 7, WorkersSet: true})
	defer conn.Close()
	if conn.Backend != nil {
		t.Fatal("local connect returned a remote backend")
	}
	if conn.PoolSize != 7 || conn.Name != "local" {
		t.Fatalf("local connect = (%d, %q), want (7, local)", conn.PoolSize, conn.Name)
	}
	if conn.WorkerCached() != 0 {
		t.Fatalf("local conn carries fleet state: worker-cached %d", conn.WorkerCached())
	}
}

func TestSummarize(t *testing.T) {
	exec := experiment.NewExecutor(2)
	conn := &Conn{Name: "local"}
	rec := Summarize(exec, conn, 1, 4, time.Now().Add(-time.Second))
	if rec.Type != "summary" || rec.Backend != "local" || rec.Workers != 2 {
		t.Fatalf("summary = %+v", rec)
	}
	if rec.Shard != "1/4" {
		t.Fatalf("shard = %q, want 1/4", rec.Shard)
	}
	if rec.WallMS < 900 {
		t.Fatalf("wall = %vms, want ~1000", rec.WallMS)
	}
	if rec = Summarize(exec, conn, 0, 1, time.Now()); rec.Shard != "" {
		t.Fatalf("unsharded summary carries shard %q", rec.Shard)
	}
}

func TestShardProgressReportsDeltas(t *testing.T) {
	// The executor's counters are session-cumulative; successive lines
	// must attribute only each experiment's own cells.
	exec := experiment.NewExecutor(1)
	var p ShardProgress
	first := p.Line(exec, 0, 2, "alpha")
	if !strings.Contains(first, "alpha: 0 resolved, 0 skipped") {
		t.Fatalf("first line = %q", first)
	}
	p.prevDone, p.prevSkipped = 0, 0 // baseline
	p2 := ShardProgress{prevDone: 3, prevSkipped: 1}
	line := p2.Line(exec, 0, 2, "beta")
	if !strings.Contains(line, "beta: -3 resolved, -1 skipped") {
		// A synthetic negative delta proves the subtraction happens; real
		// executors only grow.
		t.Fatalf("delta line = %q", line)
	}
}
