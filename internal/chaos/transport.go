package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// slowDelay is the fixed extra latency a Slow injection adds. Fixed
// rather than drawn so wall-clock effects stay bounded and the draw
// streams stay purely decisional.
const slowDelay = 50 * time.Millisecond

// Transport is an http.RoundTripper that injects transport faults in
// front of an inner transport. Install it on a pull worker with
// fleet.PullWorker.SetTransport (cmd/chaosbench does). Only the queue
// protocol's work traffic is eligible — claims and completions; health
// probes, heartbeats and nacks pass through untouched (HeartbeatLoss
// is the heartbeat fault). The faults land where the worker's claim
// retry and the queue's lease expiry must absorb them: a failed claim
// is retried, a lost completion is stolen once its lease lapses.
type Transport struct {
	inner http.RoundTripper
	inj   *Injector
	// sleep implements Slow; injectable so tests run on a fake clock.
	sleep func(d time.Duration)
}

// NewTransport wraps inner (nil selects http.DefaultTransport) with
// fault injection from inj.
func NewTransport(inj *Injector, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, inj: inj, sleep: time.Sleep}
}

// SetSleep replaces the Slow-injection sleeper (tests inject a fake).
func (t *Transport) SetSleep(sleep func(d time.Duration)) {
	if sleep != nil {
		t.sleep = sleep
	}
}

// timeoutError is the injected Timeout failure: it satisfies
// net.Error's Timeout contract so callers classify it exactly like a
// real deadline miss.
type timeoutError struct{}

func (timeoutError) Error() string   { return "chaos: injected request timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// RoundTrip applies at most one injected fault per dispatch, in fixed
// precedence (timeout, reset, 500, slow), then forwards.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p := req.URL.Path; p != "/queue/claim" && p != "/queue/complete" {
		return t.inner.RoundTrip(req)
	}
	switch {
	case t.inj.Hit(Timeout{}):
		closeReqBody(req)
		return nil, timeoutError{}
	case t.inj.Hit(Reset{}):
		closeReqBody(req)
		return nil, fmt.Errorf("chaos: injected connection reset by peer")
	case t.inj.Hit(HTTP500{}):
		closeReqBody(req)
		return synthesize500(req), nil
	case t.inj.Hit(Slow{}):
		t.sleep(slowDelay)
	}
	return t.inner.RoundTrip(req)
}

// closeReqBody honors the RoundTripper contract: the body is always
// closed, even when the request never leaves this process.
func closeReqBody(req *http.Request) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
}

// synthesize500 fabricates the 500 a crashing leader would have sent.
func synthesize500(req *http.Request) *http.Response {
	body := `{"error":"chaos: injected internal server error"}`
	h := make(http.Header)
	h.Set("Content-Type", "application/json")
	return &http.Response{
		Status:        "500 Internal Server Error",
		StatusCode:    http.StatusInternalServerError,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
