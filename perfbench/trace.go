package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"xorbp/internal/experiment"
	"xorbp/internal/fleet"
	"xorbp/internal/wire"
)

// tracer keeps the spans of a traced run in memory, aggregated by name:
// every span's duration, and for spans tied to one cell, the duration
// by the cell's wire key (so the leader's and a worker's view of one
// cell can be joined). Spans come only from this package, wrapped
// around public calls into each layer. A nil *tracer records nothing,
// which is how untraced runs execute the identical code.
type tracer struct {
	mu     sync.Mutex
	spans  map[string][]float64          // name -> durations (ms)
	byKey  map[string]map[string]float64 // name -> wire key -> duration (ms)
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{
		spans:  make(map[string][]float64),
		byKey:  make(map[string]map[string]float64),
		counts: make(map[string]float64),
	}
}

// add records one span.
func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], ms(d))
	t.mu.Unlock()
}

// addKeyed records one span of the cell with wire key key.
func (t *tracer) addKeyed(name, key string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], ms(d))
	m := t.byKey[name]
	if m == nil {
		m = make(map[string]float64)
		t.byKey[name] = m
	}
	m[key] = ms(d)
	t.mu.Unlock()
}

// inc adds v to a count.
func (t *tracer) inc(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// durations returns a copy of a span's durations (ms).
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.spans[name]...)
}

func (t *tracer) total(name string) float64 {
	s := 0.0
	for _, d := range t.durations(name) {
		s += d
	}
	return s
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// keyed returns a copy of a keyed span's durations by wire key.
func (t *tracer) keyed(name string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.byKey[name]))
	for k, v := range t.byKey[name] {
		out[k] = v
	}
	return out
}

// span runs f, recording it under name when t is non-nil.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.add(name, time.Since(start))
}

// tracedBackend wraps an experiment.Backend with one span per Run,
// keyed by the spec's wire key. Attack jobs are also recorded under
// attack.<name>. It must never wrap the evaluation executor's
// LocalBackend: the executor chains fork families only when its backend
// is LocalBackend itself.
type tracedBackend struct {
	inner experiment.Backend
	t     *tracer
	name  string
}

func (b tracedBackend) Run(ctx context.Context, spec wire.Spec) (wire.Result, error) {
	start := time.Now()
	res, err := b.inner.Run(ctx, spec)
	d := time.Since(start)
	b.t.addKeyed(b.name, spec.Key(), d)
	if spec.Attack != nil {
		b.t.add("attack."+spec.Attack.Name, d)
	}
	return res, err
}

// tracedHandler wraps the leader's http.Handler with one span per
// request, named by endpoint. Claim replies are decoded to count empty
// claims and the idle waits the leader hints.
func tracedHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &teeWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		t.add("http"+r.URL.Path, time.Since(start))
		if r.URL.Path != "/queue/claim" {
			return
		}
		var resp fleet.ClaimResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) != nil {
			return
		}
		if resp.Lease == 0 {
			t.inc("fleet.empty_claims", 1)
			t.inc("fleet.idle_hint_ms", float64(resp.WaitMS))
		}
	})
}

// teeWriter copies a response body aside as it is written.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.body.Write(p)
	return w.ResponseWriter.Write(p)
}
