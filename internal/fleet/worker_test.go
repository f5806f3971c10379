package fleet

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"io"
	"log"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xorbp/internal/core"
	"xorbp/internal/experiment"
	"xorbp/internal/runcache"
	"xorbp/internal/wire"
)

// runWorker runs w until the test ends, then drains it and fails the
// test if Run returned an error.
func runWorker(t *testing.T, w *PullWorker) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	t.Cleanup(func() {
		w.Drain()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	})
}

// resolveAll runs every spec through b and checks each result against
// the serial reference byte for byte.
func resolveAll(t *testing.T, b experiment.Backend, specs []wire.Spec) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, spec := range specs {
		got, err := b.Run(ctx, spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if want := serialResult(t, spec); !bytes.Equal(got.Encode(), want.Encode()) {
			t.Fatalf("spec %d: fleet result differs from serial:\n%s\nvs\n%s", i, got.Encode(), want.Encode())
		}
	}
}

// attackSpec builds a runnable attack job.
func attackSpec(name string) wire.Spec {
	o := core.OptionsFor(core.NoisyXOR).Normalized()
	spec := wire.Spec{
		Kind:      wire.KindAttack,
		Opts:      o,
		Codec:     o.Codec.Name(),
		Scrambler: o.Scrambler.Name(),
		Attack:    &wire.AttackSpec{Name: name, Scenario: "single", Trials: 200, Seed: 5},
	}
	spec.Opts.Codec, spec.Opts.Scrambler = nil, nil
	return spec
}

// TestPullLeaderRequiresToken: a -token leader refuses untokened and
// wrong-token requests with 401 — its queue telemetry and its claims
// are fleet-internal — and answers /healthz for the right token.
func TestPullLeaderRequiresToken(t *testing.T) {
	addr := serveLeader(t, NewLeader(NewQueue(0, time.Now), "hunter2"))

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("untokened healthz answered %s, want 401", resp.Status)
	}
	resp, err = http.Post("http://"+addr+"/queue/claim", "application/json", strings.NewReader(`{"worker":"x","max":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("untokened claim answered %s, want 401", resp.Status)
	}

	for token, want := range map[string]int{"hunter3": http.StatusUnauthorized, "hunter2": http.StatusOK} {
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var h wire.Health
		decErr := json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("healthz with token %q answered %s, want %d", token, resp.Status, want)
		}
		if want == http.StatusOK && (decErr != nil || h.Status != "ok" || h.Schema != wire.SchemaVersion()) {
			t.Fatalf("tokened healthz = %+v (decode error %v)", h, decErr)
		}
	}
}

// TestPullWorkerAbortsOnUnauthorized: a 401 is not retryable — a
// wrong-token worker makes exactly one request and returns the fatal
// refused-token error without backing off.
func TestPullWorkerAbortsOnUnauthorized(t *testing.T) {
	leader := NewLeader(NewQueue(0, time.Now), "hunter2")
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		leader.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	wrong := NewPullWorker(strings.TrimPrefix(ts.URL, "http://"), "wrong", experiment.LocalBackend{}, nil, 1, 1)
	wrong.SetToken("hunter3")
	var sleeps []time.Duration
	wrong.SetSleep(func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return ctx.Err()
	})
	if err := wrong.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "leader refused token") {
		t.Fatalf("wrong-token worker returned %v, want the fatal refused-token error", err)
	}
	if hits.Load() != 1 || len(sleeps) != 0 {
		t.Fatalf("refused worker made %d requests and backed off %v, want 1 and none", hits.Load(), sleeps)
	}
}

// TestPullTokenAuth: an untokened worker is refused by a -token leader
// with the fatal refused-token error, and a worker holding the right
// token resolves specs byte-identical to serial.
func TestPullTokenAuth(t *testing.T) {
	leader := NewLeader(NewQueue(0, time.Now), "hunter2")
	addr := serveLeader(t, leader)

	bare := NewPullWorker(addr, "bare", experiment.LocalBackend{}, nil, 1, 1)
	if err := bare.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "leader refused token") {
		t.Fatalf("untokened worker returned %v, want the fatal refused-token error", err)
	}

	right := NewPullWorker(addr, "right", experiment.LocalBackend{}, nil, 0, 2)
	right.SetToken("hunter2")
	runWorker(t, right)
	resolveAll(t, leader.Backend(), []wire.Spec{simSpec(0), simSpec(1)})
	if right.Runs() != 2 {
		t.Fatalf("tokened worker simulated %d specs, want 2", right.Runs())
	}
}

// countingTripper counts the requests it forwards to inner.
type countingTripper struct {
	inner http.RoundTripper
	n     atomic.Int64
}

func (c *countingTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.inner.RoundTrip(req)
}

// otherCA returns a pool holding a freshly generated self-signed CA
// that signed nothing the test servers present.
func otherCA(t *testing.T) *x509.CertPool {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "other fleet CA"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)
	return pool
}

// TestPullTLSPinning: a worker pinned to the leader's CA resolves specs
// over a TLS leader — also through a SetTransport wrapper installed
// before SetTLS — while a worker pinned to another CA fails every
// handshake and resolves nothing.
func TestPullTLSPinning(t *testing.T) {
	q := NewQueue(0, time.Now)
	leader := NewLeader(q, "")
	ts := httptest.NewUnstartedServer(leader.Handler())
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the refused handshakes are the point
	ts.StartTLS()
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "https://")

	// The mis-pinned worker polls first, alone: every claim fails the
	// handshake, so the spec it could have taken stays pending.
	_, errc := submitAsync(q, simSpec(0))
	waitPending(t, q, 1)
	misPinned := NewPullWorker(addr, "mispinned", experiment.LocalBackend{}, nil, 1, 1)
	misPinned.SetTLS(otherCA(t))
	ctx, cancel := context.WithCancel(context.Background())
	polls := 0
	misPinned.SetSleep(func(ctx context.Context, _ time.Duration) error {
		if polls++; polls == 3 {
			cancel()
		}
		return ctx.Err()
	})
	if err := misPinned.Run(ctx); err != nil {
		t.Fatalf("mis-pinned worker returned %v, want nil after cancellation", err)
	}
	if misPinned.Runs() != 0 || misPinned.Claims() != 0 {
		t.Fatalf("mis-pinned worker claimed %d batches, ran %d specs", misPinned.Claims(), misPinned.Runs())
	}
	if st := q.Stats(); st.Pending != 1 || st.Workers != 0 {
		t.Fatalf("a mis-pinned claim reached the leader: %+v", st)
	}

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	pinned := NewPullWorker(addr, "pinned", experiment.LocalBackend{}, nil, 0, 2)
	counter := &countingTripper{inner: pinned.Transport()}
	pinned.SetTransport(counter)
	pinned.SetTLS(pool)
	runWorker(t, pinned)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	resolveAll(t, leader.Backend(), []wire.Spec{simSpec(1)})
	if pinned.Runs() != 2 {
		t.Fatalf("pinned worker simulated %d specs, want 2", pinned.Runs())
	}
	if counter.n.Load() == 0 {
		t.Fatal("the SetTransport wrapper saw no requests")
	}
}

// TestPullWorkerSharedStore: a worker writes every result through to
// its store; a second worker on the same warm store answers the same
// specs from it without simulating.
func TestPullWorkerSharedStore(t *testing.T) {
	checkStoreReplay(t, []wire.Spec{simSpec(0), simSpec(1)})
}

// TestPullWorkerRunsAttackJobs: attack-kind specs take the same path —
// simulated once, written through to the worker's store, replayed from
// it by a second worker — and every outcome counts all its trials.
func TestPullWorkerRunsAttackJobs(t *testing.T) {
	specs := []wire.Spec{attackSpec("btb_training"), attackSpec("pht_training")}
	for _, spec := range specs {
		if res := serialResult(t, spec); res.Attack == nil || res.Attack.Trials != spec.Attack.Trials {
			t.Fatalf("%s outcome = %+v, want %d counted trials", spec.Attack.Name, res.Attack, spec.Attack.Trials)
		}
	}
	checkStoreReplay(t, specs)
}

// checkStoreReplay resolves specs through a store-backed worker, then
// again through a fresh leader (its queue has no memo of them) and a
// second worker on the same warm store; both passes must match serial,
// and the second must replay every spec without simulating.
func checkStoreReplay(t *testing.T, specs []wire.Spec) {
	t.Helper()
	st, err := runcache.Open(t.TempDir(), wire.SchemaVersion())
	if err != nil {
		t.Fatal(err)
	}

	leader1 := NewLeader(NewQueue(0, time.Now), "")
	first := NewPullWorker(serveLeader(t, leader1), "first", experiment.LocalBackend{}, st, 0, 2)
	runWorker(t, first)
	resolveAll(t, leader1.Backend(), specs)
	if first.Runs() != uint64(len(specs)) || st.Len() != len(specs) {
		t.Fatalf("first worker ran %d specs into %d store entries, want %d", first.Runs(), st.Len(), len(specs))
	}

	leader2 := NewLeader(NewQueue(0, time.Now), "")
	second := NewPullWorker(serveLeader(t, leader2), "second", experiment.LocalBackend{}, st, 0, 2)
	runWorker(t, second)
	b := leader2.Backend()
	resolveAll(t, b, specs)
	if second.Replays() != uint64(len(specs)) || second.Runs() != 0 {
		t.Fatalf("second worker replayed %d and simulated %d, want %d and 0",
			second.Replays(), second.Runs(), len(specs))
	}
	if b.Replays() != uint64(len(specs)) {
		t.Fatalf("leader counted %d worker replays, want %d", b.Replays(), len(specs))
	}
}

// TestPullRejectsInvalidSpec: a spec no worker can run — an unknown
// codec, an unregistered attack — comes back to the submitter as an
// error over HTTP instead of hanging the sweep or bouncing between
// workers.
func TestPullRejectsInvalidSpec(t *testing.T) {
	q := NewQueue(0, time.Now)
	leader := NewLeader(q, "")
	w := NewPullWorker(serveLeader(t, leader), "w", experiment.LocalBackend{}, nil, 0, 1)
	runWorker(t, w)

	badCodec := simSpec(0)
	badCodec.Codec = "rot13"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, spec := range []wire.Spec{badCodec, attackSpec("rowhammer")} {
		if _, err := leader.Backend().Run(ctx, spec); err == nil {
			t.Fatalf("invalid spec %+v resolved without error", spec)
		} else if ctx.Err() != nil {
			t.Fatalf("invalid spec hung the submitter: %v", err)
		}
	}
	if st := q.Stats(); st.Done != 2 || w.Runs() != 0 {
		t.Fatalf("queue %+v, worker runs %d; want both specs failed once and none simulated", st, w.Runs())
	}
}
