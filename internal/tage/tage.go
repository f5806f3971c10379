// Package tage implements the TAGE family core: a base bimodal predictor
// plus tagged tables indexed with geometrically increasing history
// lengths (Seznec [39]). LTAGE adds the loop predictor. The package
// provides both the FPGA prototype configuration (Table 2: "TAGE: 33 KB,
// 6 × 4096 entries, history length: 12, 27, 44, 63, 90, 130") and the
// gem5 32 KB LTAGE.
//
// Isolation hooks follow Figure 6: every table (base, tagged, loop) is
// accessed through its own guard — indexes scrambled with the domain's
// index key, entries content-encoded with the domain's content key. The
// usefulness (u) bits are replacement metadata, kept architectural
// (unencoded) like the BTB's LRU state; only predictive payload —
// tag and counter — is encoded.
package tage

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
	"xorbp/internal/store"
)

const pcShift = 2

// Config sizes a TAGE predictor.
type Config struct {
	// Name is the reported predictor name ("tage", "ltage").
	Name string
	// BaseBits is log2 of the base bimodal table.
	BaseBits uint
	// TableBits[i] is log2 of tagged table i's entry count.
	TableBits []uint
	// TagBits[i] is tagged table i's tag width.
	TagBits []uint
	// HistLengths[i] is the (geometric) history length of table i,
	// shortest first.
	HistLengths []uint
	// UResetPeriod is the number of updates between usefulness-bit aging
	// passes.
	UResetPeriod uint64
	// Loop enables the loop predictor (LTAGE).
	Loop *LoopConfig
	// Seed drives the allocation tie-break randomness.
	Seed uint64
}

// FPGAConfig is the paper's FPGA prototype direction predictor (Table 2).
func FPGAConfig() Config {
	return Config{
		Name:         "tage",
		BaseBits:     12,
		TableBits:    []uint{12, 12, 12, 12, 12, 12},
		TagBits:      []uint{8, 8, 9, 10, 11, 12},
		HistLengths:  []uint{12, 27, 44, 63, 90, 130},
		UResetPeriod: 256 * 1024,
		Seed:         0x7a6e,
	}
}

// LTAGEConfig is the gem5 32 KB LTAGE (Table 2).
func LTAGEConfig() Config {
	return Config{
		Name:         "ltage",
		BaseBits:     13,
		TableBits:    []uint{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10},
		TagBits:      []uint{7, 7, 8, 8, 9, 10, 11, 12, 12, 13, 14, 15},
		HistLengths:  []uint{4, 6, 10, 16, 25, 40, 64, 101, 160, 254, 403, 640},
		UResetPeriod: 256 * 1024,
		Loop:         DefaultLoopConfig(),
		Seed:         0x17a6e,
	}
}

// Tagged entry word layout: [ ctr(3) | tag(n) ]. Usefulness lives in a
// separate architectural array.
const ctrBits = 3

// threadState is the per-hardware-thread speculative state: the raw
// history register and the folded images used for indexing and tagging.
//
// Each tagged table's three folds (index, tag-0, tag-1) share one
// bitutil.FoldWord, in table order. The per-branch history advance
// (History.PushFolds, the simulator's hottest loop) writes the outcome
// into the history ring, then per table reads the one history bit
// leaving that table's window and advances the table's packed word:
// O(1) in the history length, and one word of fold state per table.
type threadState struct {
	hist  *bitutil.History
	folds []bitutil.FoldWord // one packed word per tagged table
}

// scratch carries the prediction's provider metadata to the update.
type scratch struct {
	baseIdx   uint64
	baseCtr   uint64
	basePred  bool
	provider  int // tagged table index, -1 = base
	provIdx   uint64
	provCtr   uint64
	provPred  bool
	altTable  int // -1 = base
	altIdx    uint64
	altPred   bool
	usedAlt   bool
	finalPred bool
	// per-table values computed at predict time (for allocation)
	indexes []uint64
	tags    []uint64

	loop loopScratch
}

// table bundles one tagged table's hot-path state: geometry masks and
// shifts precomputed at construction, the guard, the storage and the
// usefulness column. One slice of these replaces seven parallel slices,
// so the per-branch table walk performs one bounds check per table.
type table struct {
	arr     *store.WordArray
	guard   *core.Guard
	u       []uint8 // usefulness per physical entry (architectural)
	bits    uint    // log2 entries
	tagBits uint
	histLen uint
	idxMask uint64
	tagMask uint64
	pcFold  uint // precomputed bits - i%bits shift of the index hash
}

// TAGE is the predictor.
type TAGE struct {
	cfg    Config
	nTab   int
	guardB *core.Guard // base table
	base   *store.WordArray
	tabs   []table

	loop *LoopPredictor

	useAltOnNA bitutil.SignedCounter
	tick       uint64
	alloc      *rng.Xoshiro256

	threads [core.MaxHWThreads]*threadState
	scratch [core.MaxHWThreads]*scratch
}

// New builds a TAGE (or LTAGE, when cfg.Loop is set) predictor and
// registers it for flush events.
func New(cfg Config, ctrl *core.Controller) *TAGE {
	n := len(cfg.TableBits)
	if n == 0 || len(cfg.TagBits) != n || len(cfg.HistLengths) != n {
		panic("tage: inconsistent table configuration")
	}
	t := &TAGE{
		cfg:        cfg,
		nTab:       n,
		guardB:     ctrl.Guard(0x7a60, core.StructPHT),
		useAltOnNA: bitutil.NewSignedCounter(4, 0),
		alloc:      rng.NewXoshiro256(cfg.Seed),
	}
	t.base = store.NewWordArray(t.guardB, cfg.BaseBits, 2, 1)
	for i := 0; i < n; i++ {
		g := ctrl.Guard(0x7a61+uint64(i), core.StructPHT)
		width := cfg.TagBits[i] + ctrBits
		bits := cfg.TableBits[i]
		t.tabs = append(t.tabs, table{
			arr:     store.NewWordArray(g, bits, width, 0),
			guard:   g,
			u:       make([]uint8, 1<<bits),
			bits:    bits,
			tagBits: cfg.TagBits[i],
			histLen: cfg.HistLengths[i],
			idxMask: bitutil.Mask(bits),
			tagMask: bitutil.Mask(cfg.TagBits[i]),
			pcFold:  bits - uint(i)%bits,
		})
	}
	if cfg.Loop != nil {
		t.loop = NewLoopPredictor(*cfg.Loop, ctrl)
	}
	ctrl.Register(t, core.StructPHT)
	return t
}

// Name implements predictor.DirPredictor.
func (t *TAGE) Name() string { return t.cfg.Name }

// maxHist returns the longest configured history.
func (t *TAGE) maxHist() uint { return t.cfg.HistLengths[t.nTab-1] }

// state returns (lazily creating) the per-thread history state.
//
//bpvet:coldinit allocates once per hardware thread on first touch; every later call is a nil-checked array load
func (t *TAGE) state(th core.HWThread) *threadState {
	if t.threads[th] == nil {
		ts := &threadState{
			hist:  bitutil.NewHistory(t.maxHist() + 1),
			folds: make([]bitutil.FoldWord, t.nTab),
		}
		for i := range ts.folds {
			ts.folds[i] = bitutil.NewFoldWord(t.cfg.HistLengths[i], t.cfg.TableBits[i], t.cfg.TagBits[i])
		}
		t.threads[th] = ts
		t.scratch[th] = &scratch{
			indexes: make([]uint64, t.nTab),
			tags:    make([]uint64, t.nTab),
		}
	}
	return t.threads[th]
}

// pack builds a tagged entry word.
func (t *TAGE) pack(i int, tag, ctr uint64) uint64 {
	tb := &t.tabs[i]
	return (ctr << tb.tagBits) | (tag & tb.tagMask)
}

// Predict implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *TAGE) Predict(d core.Domain, pc uint64) bool {
	ts := t.state(d.Thread)
	s := t.scratch[d.Thread]

	// Base prediction.
	baseLogical := (pc >> pcShift) & bitutil.Mask(t.cfg.BaseBits)
	s.baseIdx = t.guardB.ScrambleIndex(baseLogical, d, t.cfg.BaseBits)
	s.baseCtr = t.base.Get(d, s.baseIdx)
	s.basePred = s.baseCtr >= 2

	// Scan tagged tables from longest history down for the provider and
	// the alternate, computing each table's index hash and tag lazily as
	// the scan reaches it. Tables below the early break never compute
	// either: every later consumer of s.indexes/s.tags — the provider
	// and alternate training, the usefulness update, and allocation
	// (which only touches tables above the provider) — reads entries the
	// scan visited, so the skipped hashes are provably dead. The hash and
	// the table read are inline: the pc term is hoisted out of the loop,
	// the index fold is the low bits of the table's packed fold word (the
	// index mask drops the tag lanes above it), and a table whose codec
	// allows it is read through its store.Reader with no call. pcFold is
	// at most the table's index width, so masking it with 63 changes no
	// shift; it only spares the compiler's oversized-shift fix-up.
	s.provider, s.altTable = -1, -1
	s.usedAlt = false
	p := pc >> pcShift
	n := t.nTab
	folds := ts.folds[:n]
	indexes, tags := s.indexes[:n], s.tags[:n]
	for i := n - 1; i >= 0; i-- {
		tb := &t.tabs[i]
		f := &folds[i]
		idx := tb.guard.ScrambleIndex((p^(p>>(tb.pcFold&63))^f.Word())&tb.idxMask, d, tb.bits)
		want := (p ^ f.TagHash()) & tb.tagMask
		indexes[i], tags[i] = idx, want
		var w uint64
		if rd, ok := tb.arr.Reader(d); ok {
			w = rd.Get(idx)
		} else {
			w = tb.arr.Get(d, idx)
		}
		if w&tb.tagMask != want {
			continue
		}
		ctr := (w >> tb.tagBits) & (1<<ctrBits - 1)
		if s.provider == -1 {
			s.provider = i
			s.provIdx = idx
			s.provCtr = ctr
			s.provPred = ctr >= 4
		} else {
			s.altTable = i
			s.altIdx = idx
			s.altPred = ctr >= 4
			break
		}
	}
	if s.provider == -1 {
		s.finalPred = s.basePred
	} else {
		if s.altTable == -1 {
			s.altPred = s.basePred
		}
		// A "newly allocated" provider (weak counter) defers to the
		// alternate prediction when USEALT says alternates have been more
		// reliable.
		weak := s.provCtr == 3 || s.provCtr == 4
		if weak && t.useAltOnNA.Value() >= 0 {
			s.usedAlt = true
			s.finalPred = s.altPred
		} else {
			s.finalPred = s.provPred
		}
	}

	// The loop predictor overrides TAGE when confident (LTAGE).
	if t.loop != nil {
		if pred, ok := t.loop.Predict(d, pc, &s.loop); ok {
			s.finalPred = pred
		}
	}
	return s.finalPred
}

// Update implements predictor.DirPredictor.
//
//bpvet:hotpath
func (t *TAGE) Update(d core.Domain, pc uint64, taken bool) {
	ts := t.state(d.Thread)
	s := t.scratch[d.Thread]

	if t.loop != nil {
		t.loop.Update(d, pc, taken, &s.loop)
	}

	if s.provider >= 0 {
		// Train USEALT on newly-allocated weak providers that disagreed
		// with the alternate.
		weak := s.provCtr == 3 || s.provCtr == 4
		if weak && s.provPred != s.altPred {
			t.useAltOnNA.Update(s.altPred == taken)
		}
		// Train the provider counter.
		i := s.provider
		t.tabs[i].arr.Count(d, s.provIdx, t.tabs[i].tagBits, ctrBits, taken)
		// Usefulness: provider distinguished itself from the alternate.
		if s.provPred != s.altPred {
			uc := &t.tabs[i].u[s.provIdx]
			if s.provPred == taken {
				if *uc < 3 {
					*uc++
				}
			} else if *uc > 0 {
				*uc--
			}
		}
		// When the weak provider deferred to a tagged alternate, train the
		// alternate too.
		if s.usedAlt && s.altTable >= 0 {
			j := s.altTable
			t.tabs[j].arr.Count(d, s.altIdx, t.tabs[j].tagBits, ctrBits, taken)
		}
		// When the alternate was the base predictor and it was consulted,
		// train the base.
		if s.usedAlt && s.altTable == -1 {
			t.updateBase(d, s, taken)
		}
	} else {
		t.updateBase(d, s, taken)
	}

	// Allocate on a misprediction, in a table with longer history.
	if s.finalPred != taken && s.provider < t.nTab-1 {
		t.allocate(d, s, taken)
	}

	// Periodic usefulness aging keeps allocation possible.
	t.tick++
	if t.cfg.UResetPeriod > 0 && t.tick%t.cfg.UResetPeriod == 0 {
		t.ageUsefulness()
	}

	// Advance history: the outcome goes into the history ring, and each
	// table's packed folds take it in and drop the bit leaving the table's
	// window (see threadState).
	ts.hist.PushFolds(taken, ts.folds)
}

func (t *TAGE) updateBase(d core.Domain, s *scratch, taken bool) {
	t.base.Count(d, s.baseIdx, 0, 2, taken)
}

// allocate claims an entry with u==0 in a longer-history table, with a
// random skip so consecutive allocations spread across tables (Seznec's
// policy). When every candidate is useful, their u counters are decayed
// instead — the anti-ping-pong rule.
func (t *TAGE) allocate(d core.Domain, s *scratch, taken bool) {
	start := s.provider + 1
	// Random skip: with probability 1/2 start one table later (if room),
	// emulating the weighted table choice of the reference code.
	if start < t.nTab-1 && t.alloc.Uint64()&1 == 0 {
		start++
	}
	for i := start; i < t.nTab; i++ {
		idx := s.indexes[i]
		if t.tabs[i].u[idx] == 0 {
			ctr := uint64(3)
			if taken {
				ctr = 4
			}
			t.tabs[i].arr.Set(d, idx, t.pack(i, s.tags[i], ctr))
			return
		}
	}
	for i := start; i < t.nTab; i++ {
		if uc := &t.tabs[i].u[s.indexes[i]]; *uc > 0 {
			*uc--
		}
	}
}

// ageUsefulness halves every u counter. The reference predictors
// periodically reset u so stale entries can be reclaimed.
func (t *TAGE) ageUsefulness() {
	for i := range t.tabs {
		u := t.tabs[i].u
		for j := range u {
			u[j] >>= 1
		}
	}
}

// FlushAll implements core.Flusher.
//
//bpvet:hotpath
func (t *TAGE) FlushAll() {
	t.base.FlushAll()
	for i := range t.tabs {
		t.tabs[i].arr.FlushAll()
		u := t.tabs[i].u
		for j := range u {
			u[j] = 0
		}
	}
	// The loop predictor registers its own flusher with the controller.
}

// FlushThread implements core.Flusher. Usefulness metadata is cleared
// wholesale: it has no owner tags, and leaving stale high u values would
// block the flushed thread's re-allocations (a flush must restore
// allocatability, as a hardware flush of the metadata column would).
//
//bpvet:hotpath
func (t *TAGE) FlushThread(th core.HWThread) {
	t.base.FlushThread(th)
	for i := range t.tabs {
		t.tabs[i].arr.FlushThread(th)
		u := t.tabs[i].u
		for j := range u {
			u[j] = 0
		}
	}
}

// Snapshot writes the base and tagged tables (words plus usefulness), the
// USEALT counter, the aging tick, the allocation RNG, the loop predictor
// when configured, and each lazily-created thread's history state. The
// per-thread scratch is predict-to-update carry state, dead at cycle
// boundaries, and is not serialized.
func (t *TAGE) Snapshot(w *snap.Writer) {
	t.base.Snapshot(w)
	for i := range t.tabs {
		t.tabs[i].arr.Snapshot(w)
		w.U8s(t.tabs[i].u)
	}
	t.useAltOnNA.Snapshot(w)
	w.U64(t.tick)
	t.alloc.Snapshot(w)
	if t.loop != nil {
		t.loop.Snapshot(w)
	}
	for th := range t.threads {
		ts := t.threads[th]
		w.Bool(ts != nil)
		if ts == nil {
			continue
		}
		ts.hist.Snapshot(w)
		// Lane by lane: every index fold, then every tag-0 fold, then
		// every tag-1 fold, so the bytes do not depend on the packing.
		for k := 0; k < 3; k++ {
			for i := range ts.folds {
				ts.folds[i].SnapshotLane(w, k)
			}
		}
	}
}

// Restore replaces the predictor's mutable state. Thread states absent
// from the snapshot are dropped; present ones are (re)created through the
// same lazy constructor the predictor uses, so geometry always matches.
func (t *TAGE) Restore(r *snap.Reader) {
	t.base.Restore(r)
	for i := range t.tabs {
		t.tabs[i].arr.Restore(r)
		r.U8sInto(t.tabs[i].u)
	}
	t.useAltOnNA.Restore(r)
	t.tick = r.U64()
	t.alloc.Restore(r)
	if t.loop != nil {
		t.loop.Restore(r)
	}
	for th := range t.threads {
		if !r.Bool() {
			t.threads[th] = nil
			t.scratch[th] = nil
			continue
		}
		ts := t.state(core.HWThread(th))
		ts.hist.Restore(r)
		for k := 0; k < 3; k++ {
			for i := range ts.folds {
				ts.folds[i].RestoreLane(r, k)
			}
		}
	}
}

// StorageBits implements predictor.DirPredictor. Usefulness bits (2 per
// tagged entry) count toward storage.
func (t *TAGE) StorageBits() uint64 {
	total := t.base.StorageBits()
	for i := range t.tabs {
		total += t.tabs[i].arr.StorageBits() + 2*uint64(len(t.tabs[i].u))
	}
	if t.loop != nil {
		total += t.loop.StorageBits()
	}
	return total
}

// ProviderIsLoop reports whether the last prediction on thread th was
// overridden by the loop predictor (diagnostics, and the TAGE-SC-L
// combination rule: a confident loop prediction is final).
//
//bpvet:hotpath
func (t *TAGE) ProviderIsLoop(th core.HWThread) bool {
	s := t.scratch[th]
	return s != nil && t.loop != nil && s.loop.used
}

// LastConfidence grades the last prediction on thread th: 0 (weak),
// 1 (medium) or 2 (high), from the provider counter's distance to its
// midpoint. The statistical corrector weighs the TAGE prediction by this
// grade.
//
//bpvet:hotpath
func (t *TAGE) LastConfidence(th core.HWThread) int {
	s := t.scratch[th]
	if s == nil {
		return 0
	}
	if t.loop != nil && s.loop.used {
		return 2
	}
	var dist uint64
	if s.provider >= 0 {
		// ctr in 0..7; distance of 2*ctr+1 from the midpoint 8, in 1..7.
		c := 2*s.provCtr + 1
		if c >= 8 {
			dist = c - 8
		} else {
			dist = 8 - c
		}
		switch {
		case dist >= 5:
			return 2
		case dist >= 3:
			return 1
		default:
			return 0
		}
	}
	// Base provider: saturated counters are medium confidence at best.
	if s.baseCtr == 0 || s.baseCtr == 3 {
		return 1
	}
	return 0
}

// Entries reports the logical entry count across the base, tagged and
// loop tables (for the Precise Flush walk cost model).
func (t *TAGE) Entries() uint64 {
	n := t.base.Len()
	for i := range t.tabs {
		n += t.tabs[i].arr.Len()
	}
	if t.loop != nil {
		n += t.loop.Entries()
	}
	return n
}

var _ predictor.DirPredictor = (*TAGE)(nil)
var _ core.Flusher = (*TAGE)(nil)

// PredictUpdate implements predictor.PredictUpdater: the fused
// predict-then-train call the simulator dispatches once per conditional
// branch (identical to Predict followed by Update).
//
//bpvet:hotpath
func (t *TAGE) PredictUpdate(d core.Domain, pc uint64, taken bool) bool {
	pred := t.Predict(d, pc)
	t.Update(d, pc, taken)
	return pred
}

var _ predictor.PredictUpdater = (*TAGE)(nil)
