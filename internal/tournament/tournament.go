// Package tournament implements the Alpha 21264-style hybrid predictor
// evaluated in the paper (Kessler [25]; Figure 6a): a local component
// (per-branch history table feeding a pattern table), a global component
// indexed by path history, and a chooser that picks between them.
//
// Per Figure 6(a) every table — including the local history table itself —
// is accessed through the index key and content key of the executing
// domain when Noisy-XOR-PHT is active.
package tournament

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

const pcShift = 2

// Config sizes the tournament predictor.
type Config struct {
	// LocalHistBits is the per-branch history length (Figure 6a: 11).
	LocalHistBits uint
	// LocalEntriesBits is log2 of the local history table size (11 -> 2048).
	LocalEntriesBits uint
	// GlobalBits is log2 of the global/choice table sizes and the path
	// history length (13 -> 8192).
	GlobalBits uint
}

// Gem5Config is the paper's 6.3 KB tournament configuration: 2048×11-bit
// local histories, 2048×2-bit local counters, 8192×2-bit global and
// choice tables.
func Gem5Config() Config {
	return Config{LocalHistBits: 11, LocalEntriesBits: 11, GlobalBits: 13}
}

// Tournament is the predictor.
type Tournament struct {
	cfg Config

	guardL *core.Guard // local history table
	guardP *core.Guard // local prediction table
	guardG *core.Guard // global prediction table
	guardC *core.Guard // choice table

	localHist   *store.WordArray // LocalEntriesBits x LocalHistBits
	localPred   *store.WordArray // LocalHistBits-indexed 2-bit counters
	globalPred  *store.WordArray // GlobalBits 2-bit counters
	choicePred  *store.WordArray // GlobalBits 2-bit counters
	pathHistory [core.MaxHWThreads]uint64

	scratch [core.MaxHWThreads]scratch
}

// scratch carries predict-time state to the update.
type scratch struct {
	localIdx     uint64 // physical index into localHist
	localPattern uint64
	localPIdx    uint64 // physical index into localPred
	globalIdx    uint64
	choiceIdx    uint64
	localTaken   bool
	globalTaken  bool
}

// New builds a tournament predictor registered for flush events. Each
// table gets its own guard salt, matching the Figure 6 caption ("each
// table can also have their own index key and content key").
func New(cfg Config, ctrl *core.Controller) *Tournament {
	t := &Tournament{
		cfg:    cfg,
		guardL: ctrl.Guard(0x70a1, core.StructPHT),
		guardP: ctrl.Guard(0x70a2, core.StructPHT),
		guardG: ctrl.Guard(0x70a3, core.StructPHT),
		guardC: ctrl.Guard(0x70a4, core.StructPHT),
	}
	// Local histories reset to their row index: distinct post-flush
	// patterns avoid the transient where every branch aliases onto the
	// zero-pattern counter (a one-gate-per-row hardware reset).
	t.localHist = store.NewWordArrayInit(t.guardL, cfg.LocalEntriesBits, cfg.LocalHistBits,
		func(idx uint64) uint64 { return idx })
	t.localPred = store.NewWordArray(t.guardP, cfg.LocalHistBits, 2, 1)
	t.globalPred = store.NewWordArray(t.guardG, cfg.GlobalBits, 2, 1)
	// Choice init 2: weakly prefer the global component, the Alpha reset
	// state.
	t.choicePred = store.NewWordArray(t.guardC, cfg.GlobalBits, 2, 2)
	ctrl.Register(t, core.StructPHT)
	return t
}

// Name implements predictor.DirPredictor.
func (t *Tournament) Name() string { return "tournament" }

// Predict implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *Tournament) Predict(d core.Domain, pc uint64) bool {
	s := &t.scratch[d.Thread]

	// Local component: PC -> per-branch history -> pattern counter.
	logicalL := (pc >> pcShift) & bitutil.Mask(t.cfg.LocalEntriesBits)
	s.localIdx = t.guardL.ScrambleIndex(logicalL, d, t.cfg.LocalEntriesBits)
	s.localPattern = t.localHist.Get(d, s.localIdx) & bitutil.Mask(t.cfg.LocalHistBits)
	s.localPIdx = t.guardP.ScrambleIndex(s.localPattern, d, t.cfg.LocalHistBits)
	s.localTaken = t.localPred.Get(d, s.localPIdx) >= 2

	// Global component and chooser share the path history index.
	path := t.pathHistory[d.Thread] & bitutil.Mask(t.cfg.GlobalBits)
	s.globalIdx = t.guardG.ScrambleIndex(path, d, t.cfg.GlobalBits)
	s.choiceIdx = t.guardC.ScrambleIndex(path, d, t.cfg.GlobalBits)
	s.globalTaken = t.globalPred.Get(d, s.globalIdx) >= 2

	if t.choicePred.Get(d, s.choiceIdx) >= 2 {
		return s.globalTaken
	}
	return s.localTaken
}

// Update implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *Tournament) Update(d core.Domain, pc uint64, taken bool) {
	s := &t.scratch[d.Thread]

	// Chooser trains towards whichever component was right, only when
	// they disagreed.
	if s.localTaken != s.globalTaken {
		t.choicePred.Count(d, s.choiceIdx, 0, 2, s.globalTaken == taken)
	}

	t.localPred.Count(d, s.localPIdx, 0, 2, taken)
	t.globalPred.Count(d, s.globalIdx, 0, 2, taken)

	// Shift the outcome into the branch's local history and the thread's
	// path history.
	newPattern := (s.localPattern<<1 | b2u(taken)) & bitutil.Mask(t.cfg.LocalHistBits)
	t.localHist.Set(d, s.localIdx, newPattern)
	t.pathHistory[d.Thread] = t.pathHistory[d.Thread]<<1 | b2u(taken)
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (t *Tournament) FlushAll() {
	t.localHist.FlushAll()
	t.localPred.FlushAll()
	t.globalPred.FlushAll()
	t.choicePred.FlushAll()
}

// FlushThread implements core.Flusher.
//
//bpvet:hotpath
func (t *Tournament) FlushThread(th core.HWThread) {
	t.localHist.FlushThread(th)
	t.localPred.FlushThread(th)
	t.globalPred.FlushThread(th)
	t.choicePred.FlushThread(th)
}

// Snapshot writes all four tables and the per-thread path histories
// (scratch is predict-to-update carry state, dead at cycle boundaries).
func (t *Tournament) Snapshot(w *snap.Writer) {
	t.localHist.Snapshot(w)
	t.localPred.Snapshot(w)
	t.globalPred.Snapshot(w)
	t.choicePred.Snapshot(w)
	for i := range t.pathHistory {
		w.U64(t.pathHistory[i])
	}
}

// Restore replaces the tables and path histories.
func (t *Tournament) Restore(r *snap.Reader) {
	t.localHist.Restore(r)
	t.localPred.Restore(r)
	t.globalPred.Restore(r)
	t.choicePred.Restore(r)
	for i := range t.pathHistory {
		t.pathHistory[i] = r.U64()
	}
}

// StorageBits implements predictor.DirPredictor.
func (t *Tournament) StorageBits() uint64 {
	return t.localHist.StorageBits() + t.localPred.StorageBits() +
		t.globalPred.StorageBits() + t.choicePred.StorageBits()
}

// Entries reports the logical entry count across all four tables (for
// the Precise Flush walk cost model).
func (t *Tournament) Entries() uint64 {
	return t.localHist.Len() + t.localPred.Len() +
		t.globalPred.Len() + t.choicePred.Len()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var _ predictor.DirPredictor = (*Tournament)(nil)
var _ core.Flusher = (*Tournament)(nil)

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per conditional
// branch (identical to Predict followed by Update).
//
//bpvet:hotpath
func (t *Tournament) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := t.Predict(d, pc)
	t.Update(d, pc, taken)
	return pred
}

var _ predictor.PredictUpdater = (*Tournament)(nil)
