package store

import (
	"bytes"
	"fmt"
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// refArray is the reference model the conformance test checks WordArray
// against: the same physical word layout, but every access decodes and
// re-encodes the whole word through Guard.DecodeWord/EncodeWord, with no
// precomputed geometry, key reuse or fast path.
type refArray struct {
	guard     *core.Guard
	entryBits uint
	perWord   uint64
	words     []uint64
	init      []uint64
	owners    []core.HWThread
	valid     []bool
}

func newRefArray(g *core.Guard, indexBits, entryBits uint, initFn func(uint64) uint64) *refArray {
	perWord := uint64(1)
	if 64%entryBits == 0 {
		perWord = uint64(64 / entryBits)
	}
	entries := uint64(1) << indexBits
	nWords := (entries + perWord - 1) / perWord
	m := &refArray{guard: g, entryBits: entryBits, perWord: perWord,
		words: make([]uint64, nWords), init: make([]uint64, nWords)}
	for idx := uint64(0); idx < entries; idx++ {
		word, shift := m.locate(idx)
		m.init[word] |= (initFn(idx) & m.mask()) << shift
	}
	copy(m.words, m.init)
	if g.TracksOwners() {
		m.owners = make([]core.HWThread, nWords)
		m.valid = make([]bool, nWords)
	}
	return m
}

func (m *refArray) mask() uint64 {
	if m.entryBits == 64 {
		return ^uint64(0)
	}
	return 1<<m.entryBits - 1
}

func (m *refArray) locate(idx uint64) (uint64, uint) {
	return idx / m.perWord, uint(idx%m.perWord) * m.entryBits
}

func (m *refArray) get(d core.Domain, idx uint64) uint64 {
	word, shift := m.locate(idx)
	return (m.guard.DecodeWord(m.words[word], d, word) >> shift) & m.mask()
}

func (m *refArray) update(d core.Domain, idx uint64, fn func(uint64) uint64) {
	word, shift := m.locate(idx)
	w := m.guard.DecodeWord(m.words[word], d, word)
	v := fn((w>>shift)&m.mask()) & m.mask()
	w = w&^(m.mask()<<shift) | v<<shift
	m.words[word] = m.guard.EncodeWord(w, d, word)
	if m.owners != nil {
		m.owners[word] = d.Thread
		m.valid[word] = true
	}
}

func (m *refArray) flushThread(t core.HWThread) {
	for i := range m.words {
		if m.owners == nil || (m.valid[i] && m.owners[i] == t) {
			m.words[i] = m.init[i]
			if m.owners != nil {
				m.valid[i] = false
			}
		}
	}
}

// snapshot encodes the model's physical state in WordArray's snapshot
// layout, so the two can be compared byte for byte.
func (m *refArray) snapshot() []byte {
	var w snap.Writer
	w.U64s(m.words)
	w.Bool(m.owners != nil)
	for i := range m.owners {
		w.U8(uint8(m.owners[i]))
		w.Bool(m.valid[i])
	}
	return w.Bytes()
}

// TestWordArrayCodecConformance drives WordArray and the reference model
// through the same random mix of reads (Get, and Reader where the codec
// allows it), writes, read-modify-writes (Update, and Count on a random
// counter field), key rotations and flushes, for every codec, with and without the Enhanced
// schedule, across packed and one-per-word layouts, and requires equal
// reads and byte-identical physical state after every operation.
func TestWordArrayCodecConformance(t *testing.T) {
	codecs := []core.Codec{core.XORCodec{}, core.RotXORCodec{}, core.IdentityCodec{}}
	mechs := []core.Mechanism{core.Baseline, core.PreciseFlush, core.XOR, core.NoisyXOR}
	widths := []uint{1, 2, 11, 16, 64}
	doms := []core.Domain{
		{Thread: 0, Priv: core.User}, {Thread: 0, Priv: core.Kernel},
		{Thread: 1, Priv: core.User}, {Thread: 1, Priv: core.Hypervisor},
	}
	for _, m := range mechs {
		for _, c := range codecs {
			for _, enhanced := range []bool{false, true} {
				for _, entryBits := range widths {
					name := fmt.Sprintf("%v/%s/enhanced=%v/w%d", m, c.Name(), enhanced, entryBits)
					t.Run(name, func(t *testing.T) {
						o := core.OptionsFor(m)
						o.Codec = c
						o.EnhancedPHT = enhanced
						ctrl := core.NewController(o, 3)
						g := ctrl.Guard(0x51, core.StructPHT)
						initFn := func(idx uint64) uint64 { return idx*0x9e3779b97f4a7c15 + 1 }
						const indexBits = 7
						a := NewWordArrayInit(g, indexBits, entryBits, initFn)
						ref := newRefArray(g, indexBits, entryBits, initFn)
						r := rng.NewXoshiro256(uint64(entryBits)<<8 | uint64(m))
						_, xorCodec := c.(core.XORCodec)
						if _, fast := a.Reader(doms[0]); fast != (xorCodec || !m.Encodes()) {
							t.Fatalf("Reader availability = %v for codec %s under %v", fast, c.Name(), m)
						}
						for step := 0; step < 4000; step++ {
							d := doms[r.Uint64()%uint64(len(doms))]
							idx := r.Uint64() % a.Len()
							v := r.Uint64()
							switch op := r.Uint64() % 16; {
							case op < 6:
								want := ref.get(d, idx)
								if got := a.Get(d, idx); got != want {
									t.Fatalf("step %d: Get(%v, %d) = %#x, want %#x", step, d, idx, got, want)
								}
								if rd, ok := a.Reader(d); ok {
									if got := rd.Get(idx); got != want {
										t.Fatalf("step %d: Reader(%v).Get(%d) = %#x, want %#x", step, d, idx, got, want)
									}
								}
							case op < 9:
								a.Set(d, idx, v)
								ref.update(d, idx, func(uint64) uint64 { return v })
							case op < 11:
								fn := func(old uint64) uint64 { return old*5 + v }
								a.Update(d, idx, fn)
								ref.update(d, idx, fn)
							case op < 14:
								// A counter field somewhere inside the entry.
								width := 1 + uint(v%uint64(entryBits))
								lo := uint(v>>8) % (entryBits - width + 1)
								up := v>>16&1 == 1
								a.Count(d, idx, lo, width, up)
								ref.update(d, idx, func(old uint64) uint64 {
									top := uint64(1)<<width - 1
									c := old >> lo & top
									switch {
									case up && c < top:
										c++
									case !up && c > 0:
										c--
									}
									return old&^(top<<lo) | c<<lo
								})
							case op == 14:
								ctrl.ContextSwitch(d.Thread)
								ctrl.PrivilegeChange(d.Thread, d.Priv)
							default:
								a.FlushThread(d.Thread)
								ref.flushThread(d.Thread)
							}
							var w snap.Writer
							a.Snapshot(&w)
							if !bytes.Equal(w.Bytes(), ref.snapshot()) {
								t.Fatalf("step %d: physical state diverged from the reference model", step)
							}
						}
					})
				}
			}
		}
	}
}
