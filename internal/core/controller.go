package core

import (
	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// Flusher is implemented by every predictor table so the flush mechanisms
// can clear state. FlushThread is only meaningful for structures that
// track per-entry owners (Precise Flush); owner-less structures fall back
// to FlushAll, matching the paper's note that thread-ID tagging a 2-bit
// PHT is prohibitively expensive (§4.1 observation 3 footnote).
type Flusher interface {
	// FlushAll clears the whole structure.
	FlushAll()
	// FlushThread clears entries owned by hardware thread t.
	FlushThread(t HWThread)
}

// registered pairs a table with its structure class for scoped flushes.
type registered struct {
	f    Flusher
	kind Structure
}

// Controller is the isolation event hub. The CPU model reports scheduling
// events; the controller applies the active mechanism: rotating keys for
// the encoding mechanisms, flushing registered tables for the flush
// mechanisms, and nothing for the baseline. The mechanism only touches
// structures within Options.Scope (Figures 7–9 isolate the BTB and PHT
// independently).
//
// Every secured structure holds a *Guard obtained from the controller,
// through which it reads keys and codec/scrambler configuration.
type Controller struct {
	opts Options
	keys *KeyFile

	tables []registered

	// statistics
	contextSwitches uint64
	privSwitches    uint64
	flushes         uint64
}

// NewController builds a controller for the given options. The seed feeds
// the hardware RNG model that generates keys.
func NewController(opts Options, seed uint64) *Controller {
	o := opts.Normalized()
	return &Controller{
		opts: o,
		keys: NewKeyFile(rng.NewHWRNG(seed), o.RotateOnPrivilege),
	}
}

// Options returns the normalized options in effect.
//
//bpvet:hotpath
func (c *Controller) Options() Options { return c.opts }

// Register adds a table of the given structure class to the flush
// broadcast list.
func (c *Controller) Register(f Flusher, kind Structure) {
	c.tables = append(c.tables, registered{f: f, kind: kind})
}

// inScope reports whether the mechanism applies to the structure class.
func (c *Controller) inScope(kind Structure) bool {
	return c.opts.Scope&kind != 0
}

// ContextSwitch reports that hardware thread t is being handed a new
// software thread. For encoding mechanisms this rotates t's keys; for
// flush mechanisms it flushes (whole tables for CompleteFlush, only t's
// entries for PreciseFlush) — in-scope structures only.
//
//bpvet:hotpath
func (c *Controller) ContextSwitch(t HWThread) {
	c.contextSwitches++
	switch {
	case c.opts.Mechanism.Encodes():
		c.keys.OnContextSwitch(t)
	case c.opts.Mechanism == CompleteFlush:
		c.flushAll()
	case c.opts.Mechanism == PreciseFlush:
		c.flushThread(t)
	}
}

// PrivilegeChange reports that hardware thread t is entering privilege
// level 'to'. Encoding mechanisms rotate the destination domain's keys
// when RotateOnPrivilege is set; flush mechanisms flush when
// FlushOnPrivilege is set.
//
//bpvet:hotpath
func (c *Controller) PrivilegeChange(t HWThread, to Privilege) {
	c.privSwitches++
	switch {
	case c.opts.Mechanism.Encodes():
		c.keys.OnPrivilegeChange(t, to)
	case c.opts.Mechanism == CompleteFlush:
		if c.opts.FlushOnPrivilege {
			c.flushAll()
		}
	case c.opts.Mechanism == PreciseFlush:
		if c.opts.FlushOnPrivilege {
			c.flushThread(t)
		}
	}
}

// PeriodicFlush forces a flush event independent of scheduling, modelling
// the paper's Figure 1 experiment ("the predictor is flushed every 4
// million cycles"). It is a no-op for non-flush mechanisms.
//
//bpvet:hotpath
func (c *Controller) PeriodicFlush() {
	switch c.opts.Mechanism {
	case CompleteFlush:
		c.flushAll()
	case PreciseFlush:
		c.flushAll() // periodic flush has no single victim thread
	}
}

// PeriodicRekey is the cycle-driven re-key event (Options.RekeyPeriod):
// every domain's keys rotate at once. It is a no-op for non-encoding
// mechanisms, whose periodic event is PeriodicFlush instead.
//
//bpvet:hotpath
func (c *Controller) PeriodicRekey() {
	if c.opts.Mechanism.Encodes() {
		c.keys.RotateAll()
	}
}

// RekeyEvery returns the periodic re-key interval in cycles, or 0 when
// periodic re-keying is inactive (the normalized options already zero the
// period for non-encoding mechanisms).
func (c *Controller) RekeyEvery() uint64 { return c.opts.RekeyPeriod }

func (c *Controller) flushAll() {
	c.flushes++
	for _, r := range c.tables {
		if c.inScope(r.kind) {
			r.f.FlushAll()
		}
	}
}

func (c *Controller) flushThread(t HWThread) {
	c.flushes++
	for _, r := range c.tables {
		if c.inScope(r.kind) {
			r.f.FlushThread(t)
		}
	}
}

// Stats reports event counts: context switches, privilege switches, flush
// broadcasts and key rotations.
func (c *Controller) Stats() (ctx, priv, flushes, rotations uint64) {
	return c.contextSwitches, c.privSwitches, c.flushes, c.keys.Rotations()
}

// Snapshot writes the controller's mutable state: event counters and the
// key file. The registered table list and options are static wiring
// rebuilt from the spec; the tables snapshot themselves through their own
// seams.
func (c *Controller) Snapshot(w *snap.Writer) {
	w.U64(c.contextSwitches)
	w.U64(c.privSwitches)
	w.U64(c.flushes)
	c.keys.Snapshot(w)
}

// Restore replaces the controller's mutable state.
func (c *Controller) Restore(r *snap.Reader) {
	c.contextSwitches = r.U64()
	c.privSwitches = r.U64()
	c.flushes = r.U64()
	c.keys.Restore(r)
}

// Guard returns the access-time view of the isolation configuration used
// by a secured table of the given structure class. A Guard is cheap and
// immutable; tables keep one. Structures outside the mechanism's scope
// receive a pass-through guard.
func (c *Controller) Guard(salt uint64, kind Structure) *Guard {
	_, codecXOR := c.opts.Codec.(XORCodec)
	_, scramXOR := c.opts.Scrambler.(XORScrambler)
	return &Guard{
		ctrl:     c,
		keys:     c.keys,
		salt:     rng.Mix64(salt),
		active:   c.inScope(kind),
		encode:   c.inScope(kind) && c.opts.Mechanism.Encodes(),
		scramix:  c.inScope(kind) && c.opts.Mechanism.ScramblesIndex(),
		codecXOR: codecXOR,
		scramXOR: scramXOR,
		enhanced: c.opts.EnhancedPHT,
	}
}

// Guard is what a secured table consults on every access. The salt
// diversifies keys per table so two tables indexed by the same PC bits do
// not share effective keys ("each table can also have their own index key
// and content key", Figure 6 caption).
//
// Guards sit on the simulator's per-branch path (every table read pays a
// decode, every index computation a scramble), so the common
// configurations are flattened at construction: the key file is reached
// without chasing the controller, and the paper's XOR codec/scrambler —
// the default everywhere — run inline instead of through the interface.
type Guard struct {
	ctrl     *Controller
	keys     *KeyFile
	salt     uint64
	active   bool // structure is in the mechanism's scope
	encode   bool // content encoding applies
	scramix  bool // index encoding applies
	codecXOR bool // codec is the plain XOR codec: run it inline
	scramXOR bool // scrambler is the plain XOR scrambler: run it inline
	enhanced bool // word-indexed Enhanced-XOR-PHT key schedule
}

// ContentKey returns the effective content key for a domain, or 0 when
// content encoding does not apply to this structure.
//
//bpvet:hotpath
func (g *Guard) ContentKey(d Domain) Key {
	if !g.encode {
		return 0
	}
	return g.keys.content[d.Thread][d.Priv] ^ Key(g.salt)
}

// IndexKey returns the effective index key for a domain, or 0 when index
// encoding does not apply to this structure.
//
//bpvet:hotpath
func (g *Guard) IndexKey(d Domain) Key {
	if !g.scramix {
		return 0
	}
	return g.keys.index[d.Thread][d.Priv] ^ Key(g.salt)
}

// Encode and Decode (the whole-value codec of the BTB and the RAS) are
// split into an inlinable pass-through check plus an out-of-line encoded
// path: the pass-through case (the baseline and the flush mechanisms,
// i.e. every Figure 1-class cell) costs a predicted branch, not a
// function call. Word-granularity tables use WordKeys and the keyed codec
// below instead, whose pass-through and XOR cases inline completely.

// Encode applies the content codec (identity when out of scope).
//
//bpvet:hotpath
func (g *Guard) Encode(v uint64, d Domain) uint64 {
	if !g.encode {
		return v
	}
	return g.encodeEnc(v, d)
}

func (g *Guard) encodeEnc(v uint64, d Domain) uint64 {
	k := g.ContentKey(d)
	if g.codecXOR {
		return v ^ uint64(k)
	}
	return g.ctrl.opts.Codec.Encode(v, k)
}

// Decode inverts Encode.
//
//bpvet:hotpath
func (g *Guard) Decode(v uint64, d Domain) uint64 {
	if !g.encode {
		return v
	}
	return g.decodeEnc(v, d)
}

func (g *Guard) decodeEnc(v uint64, d Domain) uint64 {
	k := g.ContentKey(d)
	if g.codecXOR {
		return v ^ uint64(k)
	}
	return g.ctrl.opts.Codec.Decode(v, k)
}

// WordKeys is one domain's content-key schedule over the words of one
// table: the Enhanced-XOR-PHT schedule ("different logical entries nearby
// in the PHT can use different keys", §5.2) derives each word's key from
// the domain key and the word index; without it every word uses the
// domain key. The zero value is the pass-through schedule (every word key
// is 0). A WordKeys is resolved once per access (Guard.WordKeys) and then
// applied per word, so a table read costs one load, one XOR with the
// word key and a shift and mask.
type WordKeys struct {
	base     uint64
	enhanced bool
}

// Word returns the key of physical word word.
//
//bpvet:hotpath
func (k WordKeys) Word(word uint64) uint64 {
	if !k.enhanced {
		return k.base
	}
	return rng.Mix64(k.base + word*0x9e3779b97f4a7c15)
}

// WordKeys returns domain d's word-key schedule for this structure: the
// pass-through schedule when content encoding does not apply.
//
//bpvet:hotpath
func (g *Guard) WordKeys(d Domain) WordKeys {
	if !g.encode {
		return WordKeys{}
	}
	return WordKeys{base: uint64(g.keys.content[d.Thread][d.Priv]) ^ g.salt, enhanced: g.enhanced}
}

// XORWords reports whether this structure's words are stored as the plain
// value XOR the WordKeys word key: true for pass-through guards (key 0)
// and for the XOR codec. Storage primitives use it to pick the inlinable
// read path; every other codec goes through DecodeKeyed/EncodeKeyed.
//
//bpvet:hotpath
func (g *Guard) XORWords() bool { return !g.encode || g.codecXOR }

// EncodeKeyed applies the content codec to a word with a word key already
// drawn from WordKeys, so a read-modify-write derives its key once and
// uses it to both decode and encode.
//
//bpvet:hotpath
func (g *Guard) EncodeKeyed(v, k uint64) uint64 {
	if g.XORWords() {
		return v ^ k
	}
	return g.ctrl.opts.Codec.Encode(v, Key(k))
}

// DecodeKeyed inverts EncodeKeyed.
//
//bpvet:hotpath
func (g *Guard) DecodeKeyed(v, k uint64) uint64 {
	if g.XORWords() {
		return v ^ k
	}
	return g.ctrl.opts.Codec.Decode(v, Key(k))
}

// EncodeWord encodes v with the word-indexed key of word under domain d
// (see WordKeys). Identity when out of scope.
//
//bpvet:hotpath
func (g *Guard) EncodeWord(v uint64, d Domain, word uint64) uint64 {
	return g.EncodeKeyed(v, g.WordKeys(d).Word(word))
}

// DecodeWord inverts EncodeWord.
//
//bpvet:hotpath
func (g *Guard) DecodeWord(v uint64, d Domain, word uint64) uint64 {
	return g.DecodeKeyed(v, g.WordKeys(d).Word(word))
}

// ScrambleIndex applies the index encoding (identity unless the mechanism
// is NoisyXOR and the structure is in scope). Index widths are always
// below 64 bits, so the mask is computed directly to keep the
// pass-through case within the inlining budget.
//
//bpvet:hotpath
func (g *Guard) ScrambleIndex(idx uint64, d Domain, nbits uint) uint64 {
	if !g.scramix {
		return idx & (1<<(nbits&63) - 1)
	}
	return g.scrambleEnc(idx, d, nbits)
}

func (g *Guard) scrambleEnc(idx uint64, d Domain, nbits uint) uint64 {
	k := g.keys.index[d.Thread][d.Priv] ^ Key(g.salt)
	if g.scramXOR {
		return (idx ^ uint64(k)) & mask(nbits)
	}
	return g.ctrl.opts.Scrambler.Scramble(idx&mask(nbits), k, nbits)
}

// TracksOwners reports whether tables should maintain per-entry owner
// thread IDs (needed by Precise Flush).
//
//bpvet:hotpath
func (g *Guard) TracksOwners() bool {
	return g.active && g.ctrl.opts.Mechanism == PreciseFlush
}
