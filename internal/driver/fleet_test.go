package driver

import (
	"context"
	"net"
	"sync"
	"testing"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
)

// TestConnectFleetMatchesSerial is the distributed engine's core
// guarantee through the topology the drivers' -fleet flag starts: a
// figure rendered over Connect's pull leader, with a tokened worker
// claiming from it, is byte-identical to the serial render, because
// every simulation is a pure function of its canonical spec.
func TestConnectFleetMatchesSerial(t *testing.T) {
	scale := experiment.MicroScale()
	if testing.Short() {
		scale.WarmupInstr /= 4
		scale.MeasureInstr /= 4
		scale.SMTWarmupInstr /= 4
		scale.SMTMeasureInstr /= 4
		for i := range scale.TimerPeriods {
			scale.TimerPeriods[i] /= 4
		}
	}
	serial := experiment.NewSessionWith(scale, experiment.NewExecutor(1)).Figure1().Render()

	// Reserve a loopback port for the leader Connect starts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tlsCert, tlsKey, lease := "", "", fleet.DefaultLease
	conn := Connect(ConnectOptions{
		Prog:  "test",
		Token: "hunter2",
		Fleet: &FleetFlags{Fleet: &addr, Lease: &lease, TLSCert: &tlsCert, TLSKey: &tlsKey},
	})
	defer conn.Close()
	if conn.Name != "pull" || conn.Backend == nil || conn.PoolSize != defaultFleetPool {
		t.Fatalf("fleet connect = (%q, %d, backend %v), want (pull, %d, a backend)",
			conn.Name, conn.PoolSize, conn.Backend != nil, defaultFleetPool)
	}

	w := fleet.NewPullWorker(addr, "w0", experiment.LocalBackend{}, nil, 0, 2)
	w.SetToken("hunter2")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	exec := experiment.NewExecutorWith(conn.PoolSize, conn.Backend)
	remote := experiment.NewSessionWith(scale, exec).Figure1().Render()
	cancel()
	wg.Wait()

	if serial != remote {
		t.Fatalf("fleet Figure 1 differs from serial:\n--- serial ---\n%s\n--- fleet ---\n%s",
			serial, remote)
	}
	if err := exec.Err(); err != nil {
		t.Fatalf("fleet executor poisoned: %v", err)
	}
	if w.Runs() == 0 {
		t.Fatal("worker executed no simulations — the remote path was not exercised")
	}
	if conn.WorkerCached() != 0 {
		t.Fatalf("storeless worker reported %d cached answers", conn.WorkerCached())
	}
}
