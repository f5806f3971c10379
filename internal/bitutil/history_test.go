package bitutil

import (
	"bytes"
	"fmt"
	"testing"

	"xorbp/internal/rng"
	"xorbp/internal/snap"
)

// shiftHistory is the reference model of History: a plain shift
// register over (length+63)/64 words, bit 0 of word 0 the most recent
// outcome, every push shifting every word. Its words are the snapshot
// layout History must reproduce.
type shiftHistory struct {
	bits   []uint64
	length uint
}

func newShiftHistory(length uint) *shiftHistory {
	return &shiftHistory{bits: make([]uint64, (length+63)/64), length: length}
}

func (h *shiftHistory) push(taken bool) {
	carry := uint64(0)
	if taken {
		carry = 1
	}
	for i := range h.bits {
		next := h.bits[i] >> 63
		h.bits[i] = h.bits[i]<<1 | carry
		carry = next
	}
	h.bits[len(h.bits)-1] &= Mask(h.length - uint(len(h.bits)-1)*64)
}

func (h *shiftHistory) bit(i uint) uint64 {
	if i >= h.length {
		return 0
	}
	return h.bits[i/64] >> (i % 64) & 1
}

func (h *shiftHistory) snapshot() []byte {
	var w snap.Writer
	w.U64s(h.bits)
	return w.Bytes()
}

func historySnapshot(h *History) []byte {
	var w snap.Writer
	h.Snapshot(&w)
	return w.Bytes()
}

var ringLengths = []uint{10, 64, 131, 641, 1801}

// TestHistoryRingMatchesShiftRegister pins the ring's snapshot bytes,
// Bit and Low to the shift-register model after every push of a seeded
// stream three times the ring's size, so the head wraps the ring more
// than once at every length.
func TestHistoryRingMatchesShiftRegister(t *testing.T) {
	for _, length := range ringLengths {
		t.Run(fmt.Sprint(length), func(t *testing.T) {
			g := rng.NewXoshiro256(uint64(length))
			h, ref := NewHistory(length), newShiftHistory(length)
			for step := 0; step < 3*len(h.bits)*64; step++ {
				taken := g.Bool(0.5)
				h.Push(taken)
				ref.push(taken)
				if got, want := historySnapshot(h), ref.snapshot(); !bytes.Equal(got, want) {
					t.Fatalf("step %d: snapshot\n%x, shift register\n%x", step, got, want)
				}
				i := uint(g.Uint64() % uint64(length+8))
				if h.Bit(i) != ref.bit(i) {
					t.Fatalf("step %d: Bit(%d) = %d, shift register %d", step, i, h.Bit(i), ref.bit(i))
				}
				if got, want := h.Low(64), ref.bits[0]; got != want {
					t.Fatalf("step %d: Low(64) = %#x, shift register %#x", step, got, want)
				}
			}
		})
	}
}

// TestHistoryRestoreDropsOutOfRangeBits restores snapshots whose words
// have every bit set, including the bits at and beyond the register's
// length, which no live register holds. Restore must drop them: the
// round trip yields the masked bytes, the ring holds no bit beyond the
// length, and the register then tracks the shift-register model
// restored from the same bytes.
func TestHistoryRestoreDropsOutOfRangeBits(t *testing.T) {
	for _, length := range ringLengths {
		t.Run(fmt.Sprint(length), func(t *testing.T) {
			ref := newShiftHistory(length)
			corrupt := make([]uint64, len(ref.bits))
			for i := range corrupt {
				corrupt[i] = ^uint64(0)
			}
			var w snap.Writer
			w.U64s(corrupt)

			h := NewHistory(length)
			// Leave the ring mid-wrap before the restore.
			for i := 0; i < 77; i++ {
				h.Push(i%3 == 0)
			}
			r := snap.NewReader(w.Bytes())
			h.Restore(r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			for i := range ref.bits {
				ref.bits[i] = ^uint64(0)
			}
			ref.bits[len(ref.bits)-1] &= Mask(length - uint(len(ref.bits)-1)*64)
			if got, want := historySnapshot(h), ref.snapshot(); !bytes.Equal(got, want) {
				t.Fatalf("round trip kept out-of-range bits:\n%x\nwant\n%x", got, want)
			}
			for i := length; i < uint(len(h.bits))*64; i++ {
				if h.Bit(i) != 0 {
					t.Fatalf("Bit(%d) beyond length %d reads 1", i, length)
				}
				// No reader looks past length, but the ring itself must
				// hold no bit a live register could not hold.
				if p := (h.head + i) & h.mask; h.bits[p>>6]>>(p&63)&1 != 0 {
					t.Fatalf("ring keeps outcome %d beyond length %d", i, length)
				}
			}
			g := rng.NewXoshiro256(7)
			for step := 0; step < 2*len(h.bits)*64; step++ {
				taken := g.Bool(0.2)
				h.Push(taken)
				ref.push(taken)
				if got, want := historySnapshot(h), ref.snapshot(); !bytes.Equal(got, want) {
					t.Fatalf("step %d after restore: snapshot\n%x, shift register\n%x", step, got, want)
				}
			}
		})
	}
}

// TestHistoryRestoreMidWrap snapshots a register whose head has wrapped
// the ring, restores it into a fresh register, and checks that both then
// advance identically.
func TestHistoryRestoreMidWrap(t *testing.T) {
	for _, length := range ringLengths {
		g := rng.NewXoshiro256(11)
		h := NewHistory(length)
		for i := 0; i < len(h.bits)*64+int(length)/2+5; i++ {
			h.Push(g.Bool(0.5))
		}
		c := NewHistory(length)
		r := snap.NewReader(historySnapshot(h))
		c.Restore(r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 300; step++ {
			taken := g.Bool(0.5)
			h.Push(taken)
			c.Push(taken)
			if !bytes.Equal(historySnapshot(h), historySnapshot(c)) {
				t.Fatalf("length %d step %d: restored register diverged", length, step)
			}
		}
	}
}
