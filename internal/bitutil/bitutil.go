// Package bitutil provides the small hardware-flavoured building blocks
// shared by every predictor in this repository: saturating counters,
// global/path/local history registers, the folded (cyclic-shift-register)
// histories used by TAGE-family indexing, and a Zipf sampler used by the
// workload generators.
package bitutil

import (
	"math"
	"math/bits"

	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// SatCounter is an n-bit unsigned saturating counter, the basic storage
// cell of pattern history tables. The zero value is a 2-bit counter at 0.
type SatCounter struct {
	value uint8
	max   uint8
}

// NewSatCounter returns an n-bit counter (1 <= bits <= 8) initialized to v.
func NewSatCounter(bits uint, v uint8) SatCounter {
	if bits == 0 || bits > 8 {
		panic("bitutil: SatCounter width out of range")
	}
	c := SatCounter{max: uint8(1<<bits - 1)}
	c.Set(v)
	return c
}

// Inc increments towards the maximum, saturating.
//
//bpvet:hotpath
func (c *SatCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements towards zero, saturating.
//
//bpvet:hotpath
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Update increments on taken, decrements otherwise.
//
//bpvet:hotpath
func (c *SatCounter) Update(taken bool) {
	if taken {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Taken reports the predicted direction: the counter's MSB.
//
//bpvet:hotpath
func (c *SatCounter) Taken() bool { return c.value > c.max/2 }

// Value returns the raw counter value.
//
//bpvet:hotpath
func (c *SatCounter) Value() uint8 { return c.value }

// Max returns the saturation ceiling.
//
//bpvet:hotpath
func (c *SatCounter) Max() uint8 { return c.max }

// Set clamps v into range and stores it.
//
//bpvet:hotpath
func (c *SatCounter) Set(v uint8) {
	if c.max == 0 {
		c.max = 3 // zero value behaves as a 2-bit counter
	}
	if v > c.max {
		v = c.max
	}
	c.value = v
}

// Weak reports whether the counter is in one of the two central (weak)
// states. For even widths this is the pair around the midpoint.
//
//bpvet:hotpath
func (c *SatCounter) Weak() bool {
	mid := c.max / 2
	return c.value == mid || c.value == mid+1
}

// Snapshot writes the counter value (the width is static configuration).
func (c *SatCounter) Snapshot(w *snap.Writer) { w.U8(c.value) }

// Restore replaces the counter value, clamped to the configured width so a
// corrupt snapshot cannot produce an out-of-range counter.
func (c *SatCounter) Restore(r *snap.Reader) {
	v := r.U8()
	if c.max != 0 && v > c.max {
		v = c.max
	}
	c.value = v
}

// SignedCounter is an n-bit signed saturating counter in
// [-2^(bits-1), 2^(bits-1)-1], used by TAGE usefulness/USEALT counters and
// GEHL weight tables.
type SignedCounter struct {
	value int16
	min   int16
	max   int16
}

// NewSignedCounter returns a signed counter of the given width (2..15 bits)
// initialized to v (clamped).
func NewSignedCounter(bits uint, v int16) SignedCounter {
	if bits < 2 || bits > 15 {
		panic("bitutil: SignedCounter width out of range")
	}
	c := SignedCounter{
		min: -(1 << (bits - 1)),
		max: 1<<(bits-1) - 1,
	}
	c.Set(v)
	return c
}

// Inc saturating-increments.
//
//bpvet:hotpath
func (c *SignedCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec saturating-decrements.
//
//bpvet:hotpath
func (c *SignedCounter) Dec() {
	if c.value > c.min {
		c.value--
	}
}

// Update increments on up, decrements otherwise.
//
//bpvet:hotpath
func (c *SignedCounter) Update(up bool) {
	if up {
		c.Inc()
	} else {
		c.Dec()
	}
}

// Value returns the current value.
//
//bpvet:hotpath
func (c *SignedCounter) Value() int16 { return c.value }

// Set clamps v into range and stores it.
//
//bpvet:hotpath
func (c *SignedCounter) Set(v int16) {
	if c.min == 0 && c.max == 0 {
		c.min, c.max = -4, 3 // zero value behaves as 3-bit
	}
	if v < c.min {
		v = c.min
	}
	if v > c.max {
		v = c.max
	}
	c.value = v
}

// Min and Max return the saturation bounds.
//
//bpvet:hotpath
func (c *SignedCounter) Min() int16 { return c.min }

// Max returns the upper saturation bound.
//
//bpvet:hotpath
func (c *SignedCounter) Max() int16 { return c.max }

// Snapshot writes the counter value.
func (c *SignedCounter) Snapshot(w *snap.Writer) { w.U16(uint16(c.value)) }

// Restore replaces the counter value, clamped to the configured range.
func (c *SignedCounter) Restore(r *snap.Reader) {
	v := int16(r.U16())
	if c.min != 0 || c.max != 0 {
		if v < c.min {
			v = c.min
		}
		if v > c.max {
			v = c.max
		}
	}
	c.value = v
}

// History is a register of the most recent branch outcomes, of bounded
// length, supporting the long histories (up to 3000 bits for TAGE_SC_L)
// as a bit vector. Bit 0 is the most recent outcome.
//
// The bits live in a power-of-two ring of words: a push moves the head
// down one position and writes one bit, and outcome i sits i positions
// above the head, so neither Push nor Bit depends on the history length.
// Positions at or beyond length hold outcomes that have left the window;
// every reader masks them off, and Snapshot linearizes the ring into the
// shift-register layout (word k holds outcomes 64k..64k+63, with bits at
// or beyond length clear).
type History struct {
	bits   []uint64
	head   uint // ring position of outcome 0
	mask   uint // ring size in bits, minus one
	length uint
}

// NewHistory returns a history register holding length outcome bits.
func NewHistory(length uint) *History {
	if length == 0 {
		panic("bitutil: zero-length history")
	}
	words := uint(1)
	for words*64 < length {
		words <<= 1
	}
	return &History{
		bits:   make([]uint64, words),
		mask:   words*64 - 1,
		length: length,
	}
}

// Len returns the register length in bits.
//
//bpvet:hotpath
func (h *History) Len() uint { return h.length }

// Push records a new outcome as bit 0. It overwrites the ring slot of
// the oldest outcome the ring holds, which is at least length pushes old.
//
//bpvet:hotpath
func (h *History) Push(taken bool) {
	p := (h.head - 1) & h.mask
	h.head = p
	var b uint64
	if taken {
		b = 1
	}
	w := &h.bits[p>>6]
	*w = *w&^(1<<(p&63)) | b<<(p&63)
}

// Bit returns outcome i (0 = most recent). Out-of-range bits read as 0.
//
//bpvet:hotpath
func (h *History) Bit(i uint) uint64 {
	if i >= h.length {
		return 0
	}
	p := (h.head + i) & h.mask
	return h.bits[p>>6] >> (p & 63) & 1
}

// PushFolds records a new outcome as bit 0, as Push does, then advances
// each packed fold word over this history by the same push: the folds
// take the outcome in and drop the history bit leaving their window.
// The ring is read through locals, so the per-table loop is loads,
// ALU work and one store.
//
//bpvet:hotpath
func (h *History) PushFolds(taken bool, fs []FoldWord) {
	h.Push(taken)
	var in uint64
	if taken {
		in = 1
	}
	ring, head, mask, length := h.bits, h.head, h.mask, h.length
	for i := range fs {
		f := &fs[i]
		var out uint64
		if l := f.Len(); l < length {
			p := (head + l) & mask
			out = ring[p>>6] >> (p & 63) & 1
		}
		f.Push(in, out)
	}
}

// word returns the 64 ring bits starting at outcome i: outcome i in bit
// 0, outcome i+63 in bit 63, wrapping around the ring. Bits at or beyond
// length are not masked.
func (h *History) word(i uint) uint64 {
	p := (h.head + i) & h.mask
	k, off := p>>6, p&63
	v := h.bits[k] >> off
	if off != 0 {
		v |= h.bits[(k+1)&uint(len(h.bits)-1)] << (64 - off)
	}
	return v
}

// Low returns the least significant n bits (n <= 64) as an integer.
//
//bpvet:hotpath
func (h *History) Low(n uint) uint64 {
	if n > 64 {
		panic("bitutil: History.Low beyond 64 bits")
	}
	if n > h.length {
		n = h.length
	}
	return h.word(0) & Mask(n)
}

// Reset clears the register.
//
//bpvet:hotpath
func (h *History) Reset() {
	for i := range h.bits {
		h.bits[i] = 0
	}
	h.head = 0
}

// Clone returns an independent copy (used to snapshot per-thread state).
func (h *History) Clone() *History {
	c := *h
	c.bits = make([]uint64, len(h.bits))
	copy(c.bits, h.bits)
	return &c
}

// snapWords is the word count of the linear snapshot layout.
func (h *History) snapWords() int { return int((h.length + 63) / 64) }

// Snapshot writes the outcome bits in the shift-register layout (see
// History); the length is static configuration.
func (h *History) Snapshot(w *snap.Writer) {
	n := h.snapWords()
	w.U32(uint32(n))
	for k := 0; k < n; k++ {
		v := h.word(uint(k) * 64)
		if k == n-1 {
			v &= Mask(h.length - uint(k)*64)
		}
		w.U64(v)
	}
}

// Restore replaces the outcome bits. The snapshot must have been taken
// from a register of the same length. Bits at or beyond length are
// dropped, so corrupt input cannot leave outcomes a live register could
// never hold.
func (h *History) Restore(r *snap.Reader) {
	n := h.snapWords()
	r.U64sInto(h.bits[:n])
	for i := n; i < len(h.bits); i++ {
		h.bits[i] = 0
	}
	h.bits[n-1] &= Mask(h.length - uint(n-1)*64)
	h.head = 0
}

// Folded maintains a cyclically-folded image of a long history, the
// standard TAGE trick: an L-bit history is compressed into W bits such
// that pushing one outcome and retiring the outcome that falls off the far
// end costs O(1). See Seznec's TAGE papers.
// The metadata fields are deliberately narrow (histories are at most a
// few thousand bits): a Folded is 16 bytes, so a predictor's whole fold
// bank spans a handful of cache lines.
type Folded struct {
	comp     uint64
	origLen  uint16 // L: history length being folded
	compLen  uint16 // W: folded width
	outPoint uint16 // position where the oldest bit re-enters
}

// NewFolded returns a folder compressing origLen history bits to compLen.
func NewFolded(origLen, compLen uint) *Folded {
	if compLen == 0 || compLen > 63 {
		panic("bitutil: folded width out of range")
	}
	if origLen > 1<<16-1 {
		panic("bitutil: folded history too long")
	}
	return &Folded{
		origLen:  uint16(origLen),
		compLen:  uint16(compLen),
		outPoint: uint16(origLen % compLen),
	}
}

// Update incorporates a new outcome given the full history register h,
// which must already contain the new outcome at bit 0. The bit leaving the
// window is h.Bit(origLen), i.e. the one just pushed past the end.
//
//bpvet:hotpath
func (f *Folded) Update(h *History) {
	f.comp = (f.comp << 1) | h.Bit(0)
	f.comp ^= h.Bit(uint(f.origLen)) << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// Value returns the folded image.
//
//bpvet:hotpath
func (f *Folded) Value() uint64 { return f.comp }

// Reset clears the folded image (call together with History.Reset).
//
//bpvet:hotpath
func (f *Folded) Reset() { f.comp = 0 }

// Snapshot writes the folded image (the fold geometry is static).
func (f *Folded) Snapshot(w *snap.Writer) { w.U64(f.comp) }

// Restore replaces the folded image, masked to the fold width so corrupt
// input cannot set bits a live fold could never hold.
func (f *Folded) Restore(r *snap.Reader) {
	v := r.U64()
	if f.compLen != 0 {
		v &= (1 << f.compLen) - 1
	}
	f.comp = v
}

// FoldWord packs the three folds a TAGE tagged table keeps over one
// history length — the index fold (idxLen bits) and the two tag folds
// (tagLen and tagLen-1 bits) — into one word, as three lanes with a
// guard bit above each:
//
//	bit 0          o1              o2                          63
//	[ index | g ]  [ tag-0 | g ]   [ tag-1 | g ]   0 ...
//
// One push advances all three lanes at once: the word shifts left, so
// each lane's top bit moves into its guard; the leaving bit is XORed
// into each lane's out point; and the guard bits, together with the
// entering bit, are XORed into each lane's bit 0 while the guards are
// cleared. Lane by lane this is exactly Folded's update. The index fold
// is the low idxLen bits of Word, and TagHash lines the two tag folds
// up as tag-0 ^ tag-1<<1.
//
// The three guards move down by three different lane widths. Push moves
// them all with one 64x64-bit multiply: wrap has bit 64-w set for each
// lane width w, so the high word of guards*wrap holds every guard bit
// shifted down by every lane width. Masking with the lanes' bit-0
// positions keeps the three wanted products; NewFoldWord checks that no
// other product lands on one of those positions or carries into one.
type FoldWord struct {
	c       uint64
	in      uint64 // bit 0 of each lane
	out     uint64 // each lane's out point
	guards  uint64 // the guard bit above each lane
	wrap    uint64 // bit 64-w for each lane width w
	origLen uint16
	w0, w1  uint8 // index and tag-0 lane widths; tag-1 is w1-1 wide
	o1, o2  uint8 // lane offsets of the tag folds
}

// NewFoldWord returns the packed folds of one table: origLen history
// bits folded to idxLen, tagLen and tagLen-1 bits. It panics when the
// lanes and their guard bits do not fit one word, and on the few
// geometries — chiefly an index fold exactly twice the tag width — where
// one of Push's wrap products would land on a lane's bit 0.
func NewFoldWord(origLen, idxLen, tagLen uint) FoldWord {
	if idxLen == 0 || tagLen < 2 || idxLen+2*tagLen+2 > 64 {
		panic("bitutil: packed fold lanes out of range")
	}
	if origLen > 1<<16-1 {
		panic("bitutil: folded history too long")
	}
	o1 := idxLen + 1
	o2 := o1 + tagLen + 1
	f := FoldWord{
		origLen: uint16(origLen),
		w0:      uint8(idxLen), w1: uint8(tagLen),
		o1: uint8(o1), o2: uint8(o2),
	}
	offs := [3]uint{0, o1, o2}
	widths := [3]uint{idxLen, tagLen, tagLen - 1}
	for k, w := range widths {
		f.in |= 1 << offs[k]
		f.out |= 1 << (offs[k] + origLen%w)
		f.guards |= 1 << (offs[k] + w)
		f.wrap |= 1 << (64 - w)
	}
	for set := uint(0); set < 8; set++ {
		var g, want uint64
		for k := range offs {
			if set>>k&1 != 0 {
				g |= 1 << (offs[k] + widths[k])
				want |= 1 << offs[k]
			}
		}
		if hi, _ := bits.Mul64(g, f.wrap); hi&f.in != want {
			panic("bitutil: packed fold wrap products collide")
		}
	}
	return f
}

// Push advances the three folds by one history push, given the entering
// bit (history bit 0 after the push) and the bit leaving the window
// (history bit Len after the push), each 0 or 1.
//
//bpvet:hotpath
func (f *FoldWord) Push(in, out uint64) {
	c := f.c<<1 ^ f.out&-out
	g := c & f.guards
	hi, _ := bits.Mul64(g, f.wrap)
	f.c = c ^ g ^ (hi^-in)&f.in
}

// Len returns the folded history length: Push's out is history bit Len.
//
//bpvet:hotpath
func (f *FoldWord) Len() uint { return uint(f.origLen) }

// Word returns the packed word; its low idxLen bits are the index fold.
//
//bpvet:hotpath
func (f *FoldWord) Word() uint64 { return f.c }

// TagHash returns tag-0 ^ tag-1<<1 in its low tagLen bits (the bits
// above are not masked). Tag-1's lane sits right above tag-0's guard,
// which is always clear, so one shift puts tag-1 one bit up. The lane
// offsets are below 64, so masking the shift counts with 63 changes no
// result; it lets the compiler emit bare shifts.
//
//bpvet:hotpath
func (f *FoldWord) TagHash() uint64 { return f.c>>(f.o1&63) ^ f.c>>((f.o2-1)&63) }

// Lane returns fold k: 0 the index fold, 1 and 2 the tag folds.
func (f *FoldWord) Lane(k int) uint64 {
	off, w := f.lane(k)
	return f.c >> off & Mask(w)
}

func (f *FoldWord) lane(k int) (off, width uint) {
	switch k {
	case 0:
		return 0, uint(f.w0)
	case 1:
		return uint(f.o1), uint(f.w1)
	case 2:
		return uint(f.o2), uint(f.w1) - 1
	}
	panic("bitutil: fold lane out of range")
}

// SnapshotLane writes fold k as Folded.Snapshot would. TAGE writes its
// folds lane by lane, every index fold first, so the snapshot bytes do
// not depend on how the folds are packed.
func (f *FoldWord) SnapshotLane(w *snap.Writer, k int) { w.U64(f.Lane(k)) }

// RestoreLane replaces fold k, masked to the lane width as
// Folded.Restore masks.
func (f *FoldWord) RestoreLane(r *snap.Reader, k int) {
	off, w := f.lane(k)
	f.c = f.c&^(Mask(w)<<off) | (r.U64()&Mask(w))<<off
}

// Mask returns a value with the low n bits set. n must be <= 64.
//
//bpvet:hotpath
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

// Log2 returns floor(log2(n)) for n >= 1.
//
//bpvet:hotpath
func Log2(n uint64) uint {
	var l uint
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// IsPow2 reports whether n is a power of two (n >= 1).
//
//bpvet:hotpath
func IsPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, the standard model for hot/cold branch popularity in the
// synthetic workloads. It precomputes the CDF for O(log n) sampling.
type Zipf struct {
	cdf []float64
}

// NewZipf returns a sampler over n ranks with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("bitutil: Zipf over empty domain")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws a rank using g.
//
//bpvet:hotpath
func (z *Zipf) Sample(g *rng.Xoshiro256) int {
	u := g.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
