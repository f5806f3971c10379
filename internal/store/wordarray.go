// Package store provides the secured storage primitives on which every
// predictor table is built: packed arrays of n-bit logical entries whose
// physical words pass through the isolation Guard's content codec on every
// access, plus the per-entry owner tracking Precise Flush requires.
//
// The word-granularity layout mirrors the paper's observation that "the
// physical implementation of the table using SRAM is most likely using a
// wider row already" (§5.2): a 4K-entry 2-bit PHT is physically 128
// 64-bit words here, and Enhanced-XOR-PHT encodes whole words with a
// word-indexed key schedule.
package store

import (
	"xorbp/internal/bitutil"
	"xorbp/internal/core"
	"xorbp/internal/snap"
)

// WordArray is an array of 2^indexBits logical entries, each entryBits
// wide (1..64, power-of-two packing within 64-bit words). All reads and
// writes are mediated by the Guard: contents are encoded with the
// accessing domain's content key (XOR-BP) and, for sub-word entries, the
// word-indexed Enhanced schedule when enabled.
//
// Index scrambling is deliberately NOT applied here: tables differ in
// which bits form the index (PC bits, history hashes, ...), so predictors
// scramble indexes themselves via Guard.ScrambleIndex before calling Get
// and Set. WordArray is purely the content-encoding layer.
type WordArray struct {
	guard     *core.Guard
	words     []uint64
	entryBits uint
	perWord   uint // logical entries per 64-bit word
	indexBits uint
	initWords []uint64 // physical word pattern restored by a flush

	// Hot-path precomputation: perWord is always a power of two (64 is
	// only divisible by powers of two; awkward widths use one entry per
	// word), so locate reduces to a shift and a mask. xorWords records a
	// guard whose words are the plain value XOR the word key (pass-through
	// or the XOR codec): those reads take the inlinable Reader path, and
	// the other codecs go through the guard's codec out of line.
	wordShift  uint   // log2(perWord)
	slotMask   uint64 // perWord - 1
	entryMask  uint64 // Mask(entryBits)
	entryShift uint64 // log2(entryBits) for packed layouts (slot * entryBits == slot << entryShift)
	xorWords   bool   // guard.XORWords(): words decode with one XOR

	// owners tracks the hardware thread that last wrote each *word* (the
	// paper's Precise Flush augments entries with thread IDs; tracking at
	// word granularity models the SRAM-row reality and is strictly
	// coarser, i.e. flushes at least as much). nil unless the guard's
	// mechanism needs it.
	owners []core.HWThread
	valid  []bool
}

// NewWordArray builds an array of 2^indexBits entries of entryBits bits.
// initValue is the per-entry reset value (e.g. a weak saturating-counter
// state); it is replicated into every word on construction and on flushes.
func NewWordArray(guard *core.Guard, indexBits, entryBits uint, initValue uint64) *WordArray {
	return NewWordArrayInit(guard, indexBits, entryBits,
		func(uint64) uint64 { return initValue })
}

// NewWordArrayInit builds an array whose reset value varies per entry
// (initFn maps entry index to reset value). Hardware uses this for
// structures whose entries must reset to distinct values — e.g. a local
// history table reset to the row index so freshly-flushed branches do not
// all alias onto the zero-pattern counter.
func NewWordArrayInit(guard *core.Guard, indexBits, entryBits uint, initFn func(idx uint64) uint64) *WordArray {
	if entryBits == 0 || entryBits > 64 {
		panic("store: entry width out of range")
	}
	// Divisor widths pack 64/entryBits entries per word; awkward widths
	// (11, 52, ...) get one entry per word, which only costs simulator
	// memory, not modelled SRAM bits.
	perWord := uint(1)
	if 64%entryBits == 0 {
		perWord = 64 / entryBits
	}
	entries := uint(1) << indexBits
	nWords := (entries + perWord - 1) / perWord

	a := &WordArray{
		guard:     guard,
		words:     make([]uint64, nWords),
		entryBits: entryBits,
		perWord:   perWord,
		indexBits: indexBits,
		initWords: make([]uint64, nWords),
		wordShift: bitutil.Log2(uint64(perWord)),
		slotMask:  uint64(perWord) - 1,
		entryMask: bitutil.Mask(entryBits),
		xorWords:  guard.XORWords(),
	}
	if perWord > 1 {
		// Packed layouts only exist for power-of-two entry widths (the
		// divisors of 64), so the slot-to-bit-offset multiply is a shift.
		a.entryShift = uint64(bitutil.Log2(uint64(entryBits)))
	}
	for idx := uint64(0); idx < uint64(entries); idx++ {
		word, shift := a.locate(idx)
		a.initWords[word] |= (initFn(idx) & bitutil.Mask(entryBits)) << shift
	}
	copy(a.words, a.initWords)
	if guard.TracksOwners() {
		a.owners = make([]core.HWThread, nWords)
		a.valid = make([]bool, nWords)
	}
	return a
}

// Len returns the number of logical entries.
func (a *WordArray) Len() uint64 { return 1 << a.indexBits }

// IndexBits returns the index width in bits.
func (a *WordArray) IndexBits() uint { return a.indexBits }

// EntryBits returns the logical entry width in bits.
func (a *WordArray) EntryBits() uint { return a.entryBits }

// locate maps a logical index to (word, bit offset).
func (a *WordArray) locate(idx uint64) (word uint64, shift uint) {
	return idx >> a.wordShift, uint(idx&a.slotMask) * a.entryBits
}

// Reader is domain d's read view of a WordArray: the domain's word-key
// schedule resolved once, so each Get is one load, one XOR with the word
// key, and a shift and mask. It exists only for guards whose words decode
// with a single XOR (pass-through and the XOR codec; see
// WordArray.Reader); it is a value, built per access burst (a predictor
// builds one per table per branch) and never kept across key rotations.
type Reader struct {
	a    *WordArray
	keys core.WordKeys
}

// Reader returns domain d's read view and true when the guard's codec
// allows the inlinable read path. For any other codec it returns false,
// and the caller reads through Get, which applies the codec out of line.
//
//bpvet:hotpath
func (a *WordArray) Reader(d core.Domain) (Reader, bool) {
	return Reader{a: a, keys: a.guard.WordKeys(d)}, a.xorWords
}

// Get reads entry idx. It is small enough to inline into predictor
// lookup loops (the inline-budget CI step checks that it stays so).
//
//bpvet:hotpath
func (r Reader) Get(idx uint64) uint64 {
	a := r.a
	word := idx >> a.wordShift
	return ((a.words[word] ^ r.keys.Word(word)) >> ((idx & a.slotMask) << a.entryShift)) & a.entryMask
}

// Get reads entry idx as domain d, decoding the containing word with d's
// content key. Reading a word written by a different domain (or before a
// key rotation) therefore yields noise — the content-isolation property.
// It is one out-of-line call: XOR-decoded words take the Reader path
// inside it, other codecs the guard's codec. Predictor loops that read
// several entries per branch use Reader directly.
//
//bpvet:hotpath
func (a *WordArray) Get(d core.Domain, idx uint64) uint64 {
	if !a.xorWords {
		return a.getCodec(d, idx)
	}
	return Reader{a: a, keys: a.guard.WordKeys(d)}.Get(idx)
}

// getCodec is Get for codecs other than XOR, kept out of line so the
// common path stays small.
func (a *WordArray) getCodec(d core.Domain, idx uint64) uint64 {
	word, shift := a.locate(idx)
	w := a.guard.DecodeWord(a.words[word], d, word)
	return (w >> shift) & a.entryMask
}

// Set writes entry idx as domain d: the containing word is decoded,
// modified, and re-encoded with d's key, modelling the hardware
// read-modify-write of a sub-word update (§5.2 "the original counter needs
// to be read out of the PHT (and decoded) first before being updated,
// re-encoded, and written back"). The word key is derived once and used
// for both the decode and the encode.
//
//bpvet:hotpath
func (a *WordArray) Set(d core.Domain, idx uint64, v uint64) {
	word, shift := a.locate(idx)
	k := a.guard.WordKeys(d).Word(word)
	m := a.entryMask << shift
	w := a.guard.DecodeKeyed(a.words[word], k)
	a.words[word] = a.guard.EncodeKeyed((w&^m)|((v<<shift)&m), k)
	a.own(d, word)
}

// Update applies fn to entry idx under domain d in one decode/encode pass.
// Saturating counters train through Count instead, which needs no
// closure.
//
//bpvet:hotpath
func (a *WordArray) Update(d core.Domain, idx uint64, fn func(uint64) uint64) {
	word, shift := a.locate(idx)
	k := a.guard.WordKeys(d).Word(word)
	w := a.guard.DecodeKeyed(a.words[word], k)
	v := fn((w>>shift)&a.entryMask) & a.entryMask
	a.words[word] = a.guard.EncodeKeyed((w&^(a.entryMask<<shift))|(v<<shift), k)
	a.own(d, word)
}

// Count steps the saturating counter held in bits [lo, lo+width) of entry
// idx under domain d — up by one unless already at its maximum, or down
// by one unless already 0 — in one decode/encode pass. It is the
// counter-training form of Update, with no closure call. The entry is
// written back (and its owner recorded) even when the counter is
// saturated, exactly as an Update would.
//
//bpvet:hotpath
func (a *WordArray) Count(d core.Domain, idx uint64, lo, width uint, up bool) {
	word, shift := a.locate(idx)
	k := a.guard.WordKeys(d).Word(word)
	w := a.guard.DecodeKeyed(a.words[word], k)
	shift += lo
	top := uint64(1)<<width - 1
	c := (w >> shift) & top
	// Branch-free: the direction is the resolved outcome, which the host's
	// branch predictor would mispredict as often as the simulated one.
	// Each single assignment under up compiles to a conditional move.
	step := -(uint64(1) << shift)
	if up {
		step = 1 << shift
	}
	limit := uint64(0)
	if up {
		limit = top
	}
	if c != limit {
		w += step
	}
	a.words[word] = a.guard.EncodeKeyed(w, k)
	a.own(d, word)
}

// own records d's thread as the last writer of word, for Precise Flush.
func (a *WordArray) own(d core.Domain, word uint64) {
	if a.owners != nil {
		a.owners[word] = d.Thread
		a.valid[word] = true
	}
}

// FlushAll resets every entry to the init value (Complete Flush).
//
//bpvet:hotpath
func (a *WordArray) FlushAll() {
	copy(a.words, a.initWords)
	if a.owners != nil {
		for i := range a.valid {
			a.valid[i] = false
		}
	}
}

// FlushThread resets words last written by thread t (Precise Flush). On an
// array without owner tracking it degrades to FlushAll, mirroring the
// paper's point that precise flushing requires the extra thread-ID state.
//
//bpvet:hotpath
func (a *WordArray) FlushThread(t core.HWThread) {
	if a.owners == nil {
		a.FlushAll()
		return
	}
	for i := range a.words {
		if a.valid[i] && a.owners[i] == t {
			a.words[i] = a.initWords[i]
			a.valid[i] = false
		}
	}
}

// Snapshot writes the physical words and, when owner tracking is active,
// the per-word owner/valid metadata. Words are serialized exactly as
// stored — still encoded under whatever keys were live — so a snapshot
// round-trips byte-identically without consulting the guard; the key file
// restores separately and the pairing stays consistent.
func (a *WordArray) Snapshot(w *snap.Writer) {
	w.U64s(a.words)
	w.Bool(a.owners != nil)
	if a.owners != nil {
		for i := range a.owners {
			w.U8(uint8(a.owners[i]))
			w.Bool(a.valid[i])
		}
	}
}

// Restore replaces the physical words and owner metadata. The snapshot
// must come from an array of identical geometry and owner-tracking mode.
func (a *WordArray) Restore(r *snap.Reader) {
	r.U64sInto(a.words)
	tracked := r.Bool()
	if tracked != (a.owners != nil) {
		r.Fail("owner tracking mismatch: snapshot %v, array %v", tracked, a.owners != nil)
		return
	}
	if a.owners != nil {
		for i := range a.owners {
			a.owners[i] = core.HWThread(r.U8())
			a.valid[i] = r.Bool()
		}
	}
}

// StorageBits returns the number of SRAM bits the array occupies
// (logical payload only, excluding owner metadata), for the hardware cost
// model and for configuration reporting.
func (a *WordArray) StorageBits() uint64 {
	return uint64(a.Len()) * uint64(a.entryBits)
}
