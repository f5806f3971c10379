// Package gshare implements the Gshare direction predictor (McFarling):
// a single pattern history table of 2-bit counters indexed by the XOR of
// the branch PC and the global history register. It is the paper's
// simplest evaluated predictor (2 KB in the gem5 configuration) and the
// running example for Noisy-XOR-PHT in Figure 4(b).
package gshare

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

const pcShift = 2

// Config sizes a Gshare predictor.
type Config struct {
	// IndexBits is log2 of the PHT entry count.
	IndexBits uint
	// HistoryBits is the global history length folded into the index.
	HistoryBits uint
}

// Gem5Config is the paper's 2 KB Gshare: 8K entries × 2 bits.
func Gem5Config() Config { return Config{IndexBits: 13, HistoryBits: 13} }

// Gshare is the predictor. The PHT is a secured WordArray: contents pass
// through the content codec (Enhanced-XOR-PHT when enabled) and the index
// through the scrambler (Noisy-XOR-PHT).
type Gshare struct {
	cfg   Config
	guard *core.Guard
	pht   *store.WordArray

	ghr     [core.MaxHWThreads]uint64
	scratch [core.MaxHWThreads]uint64 // physical index used at predict
}

// New builds a Gshare predictor registered for flush events.
func New(cfg Config, ctrl *core.Controller) *Gshare {
	g := &Gshare{
		cfg:   cfg,
		guard: ctrl.Guard(0x65aa, core.StructPHT),
	}
	// Init to weak-not-taken (1 on the 0..3 scale).
	g.pht = store.NewWordArray(g.guard, cfg.IndexBits, 2, 1)
	ctrl.Register(g, core.StructPHT)
	return g
}

// Name implements predictor.DirPredictor.
func (g *Gshare) Name() string { return "gshare" }

// index computes the physical PHT index for (d, pc).
func (g *Gshare) index(d core.Domain, pc uint64) uint64 {
	h := g.ghr[d.Thread] & bitutil.Mask(g.cfg.HistoryBits)
	logical := ((pc >> pcShift) ^ h) & bitutil.Mask(g.cfg.IndexBits)
	return g.guard.ScrambleIndex(logical, d, g.cfg.IndexBits)
}

// Predict implements predictor.DirPredictor.
//
//bpvet:hotpath
func (g *Gshare) Predict(d core.Domain, pc uint64) bool {
	idx := g.index(d, pc)
	g.scratch[d.Thread] = idx
	return g.pht.Get(d, idx) >= 2
}

// Update implements predictor.DirPredictor. It trains the counter that
// produced the prediction and shifts the outcome into the thread's global
// history.
//
//bpvet:hotpath
func (g *Gshare) Update(d core.Domain, pc uint64, taken bool) {
	idx := g.scratch[d.Thread]
	g.pht.Count(d, idx, 0, 2, taken)
	g.ghr[d.Thread] = g.ghr[d.Thread]<<1 | b2u(taken)
}

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per
// conditional branch. Predict already caches the physical index in
// scratch for Update, so the plain composition computes it once.
//
//bpvet:hotpath
func (g *Gshare) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := g.Predict(d, pc)
	g.Update(d, pc, taken)
	return pred
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (g *Gshare) FlushAll() { g.pht.FlushAll() }

// FlushThread implements core.Flusher. The PHT has no owner bits (the
// paper's point about 2-bit entries), so this degrades to a full flush —
// except that a history-less structure owned entirely by one thread on a
// single-threaded core behaves identically either way.
//
//bpvet:hotpath
func (g *Gshare) FlushThread(t core.HWThread) { g.pht.FlushThread(t) }

// Snapshot writes the PHT words and per-thread global histories. The
// predict-to-update scratch is excluded: snapshots are taken at cycle
// boundaries, never between a Predict and its paired Update (the engine
// dispatches the fused PredictUpdate per branch).
func (g *Gshare) Snapshot(w *snap.Writer) {
	g.pht.Snapshot(w)
	for i := range g.ghr {
		w.U64(g.ghr[i])
	}
}

// Restore replaces the PHT and histories.
func (g *Gshare) Restore(r *snap.Reader) {
	g.pht.Restore(r)
	for i := range g.ghr {
		g.ghr[i] = r.U64()
	}
}

// StorageBits implements predictor.DirPredictor.
func (g *Gshare) StorageBits() uint64 { return g.pht.StorageBits() }

// Entries reports the logical entry count (for the Precise Flush walk
// cost model).
func (g *Gshare) Entries() uint64 { return g.pht.Len() }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ predictor.DirPredictor = (*Gshare)(nil)
var _ core.Flusher = (*Gshare)(nil)
