package bitutil

import (
	"testing"
	"testing/quick"

	"xorbp/internal/rng"
)

func TestSatCounterSaturation(t *testing.T) {
	c := NewSatCounter(2, 0)
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("2-bit counter saturated at %d, want 3", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Fatalf("2-bit counter floored at %d, want 0", c.Value())
	}
}

func TestSatCounterTakenThreshold(t *testing.T) {
	cases := []struct {
		v     uint8
		taken bool
	}{{0, false}, {1, false}, {2, true}, {3, true}}
	for _, tc := range cases {
		c := NewSatCounter(2, tc.v)
		if c.Taken() != tc.taken {
			t.Errorf("value %d: Taken=%v, want %v", tc.v, c.Taken(), tc.taken)
		}
	}
}

func TestSatCounterWeakStates(t *testing.T) {
	weak := map[uint8]bool{0: false, 1: true, 2: true, 3: false}
	for v, w := range weak {
		c := NewSatCounter(2, v)
		if c.Weak() != w {
			t.Errorf("value %d: Weak=%v, want %v", v, c.Weak(), w)
		}
	}
}

func TestSatCounterZeroValueIs2Bit(t *testing.T) {
	var c SatCounter
	c.Set(9)
	if c.Value() != 3 {
		t.Fatalf("zero-value counter clamped to %d, want 3", c.Value())
	}
}

func TestSatCounterInvariantProperty(t *testing.T) {
	// Any sequence of updates keeps the value within [0, max].
	f := func(bits uint8, ops []bool) bool {
		w := uint(bits%8) + 1
		c := NewSatCounter(w, 0)
		for _, op := range ops {
			c.Update(op)
			if c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSatCounterWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", w)
				}
			}()
			NewSatCounter(w, 0)
		}()
	}
}

func TestSignedCounterBounds(t *testing.T) {
	c := NewSignedCounter(3, 0)
	for i := 0; i < 20; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("3-bit signed max %d, want 3", c.Value())
	}
	for i := 0; i < 20; i++ {
		c.Dec()
	}
	if c.Value() != -4 {
		t.Fatalf("3-bit signed min %d, want -4", c.Value())
	}
}

func TestSignedCounterSetClamps(t *testing.T) {
	c := NewSignedCounter(4, 0)
	c.Set(100)
	if c.Value() != 7 {
		t.Fatalf("Set(100) -> %d, want 7", c.Value())
	}
	c.Set(-100)
	if c.Value() != -8 {
		t.Fatalf("Set(-100) -> %d, want -8", c.Value())
	}
}

func TestSignedCounterInvariantProperty(t *testing.T) {
	f := func(ops []bool) bool {
		c := NewSignedCounter(5, 0)
		for _, op := range ops {
			c.Update(op)
			if c.Value() < c.Min() || c.Value() > c.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryPushAndBit(t *testing.T) {
	h := NewHistory(130)
	h.Push(true)
	h.Push(false)
	h.Push(true)
	// Most recent first: 1, 0, 1.
	if h.Bit(0) != 1 || h.Bit(1) != 0 || h.Bit(2) != 1 {
		t.Fatalf("history bits wrong: %d %d %d", h.Bit(0), h.Bit(1), h.Bit(2))
	}
	if h.Bit(200) != 0 {
		t.Fatal("out-of-range bit should read 0")
	}
}

func TestHistoryLongShift(t *testing.T) {
	// A bit pushed in must appear at position i after i further pushes,
	// crossing the 64-bit word boundary.
	h := NewHistory(200)
	h.Push(true)
	for i := 0; i < 150; i++ {
		h.Push(false)
	}
	if h.Bit(150) != 1 {
		t.Fatal("pushed bit lost crossing word boundary")
	}
	if h.Bit(149) != 0 || h.Bit(151) != 0 {
		t.Fatal("neighbour bits polluted")
	}
}

func TestHistoryBoundedLength(t *testing.T) {
	h := NewHistory(10)
	h.Push(true)
	for i := 0; i < 9; i++ {
		h.Push(false)
	}
	if h.Bit(9) != 1 {
		t.Fatal("bit should still be visible at position 9")
	}
	h.Push(false)
	if h.Bit(9) != 0 && h.Bit(10) != 0 {
		t.Fatal("bit escaped the configured window")
	}
}

func TestHistoryLow(t *testing.T) {
	h := NewHistory(64)
	h.Push(true)
	h.Push(true)
	h.Push(false)
	// Stream (most recent first): 0,1,1. Bit 0 is the most recent, so the
	// integer reads 0b110.
	if got := h.Low(3); got != 0b110 {
		t.Fatalf("Low(3) = %b, want 110", got)
	}
}

func TestHistoryClone(t *testing.T) {
	h := NewHistory(64)
	h.Push(true)
	c := h.Clone()
	h.Push(true)
	if c.Bit(1) == 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestFoldedMatchesDirectFold(t *testing.T) {
	// The incremental folded image must equal folding the history from
	// scratch after every push, for several (L, W) combinations.
	combos := []struct{ l, w uint }{{12, 10}, {27, 11}, {44, 12}, {130, 12}, {7, 9}}
	g := rng.NewXoshiro256(123)
	for _, c := range combos {
		h := NewHistory(c.l + 1)
		f := NewFolded(c.l, c.w)
		for step := 0; step < 500; step++ {
			h.Push(g.Bool(0.5))
			f.Update(h)
			if got, want := f.Value(), directFold(h, c.l, c.w); got != want {
				t.Fatalf("L=%d W=%d step %d: folded %#x, want %#x",
					c.l, c.w, step, got, want)
			}
		}
	}
}

// directFold recomputes the cyclic fold from the raw history bits.
func directFold(h *History, l, w uint) uint64 {
	var v uint64
	for i := int(l) - 1; i >= 0; i-- {
		v = (v << 1) | h.Bit(uint(i))
		v = (v & Mask(w)) ^ (v >> w)
	}
	return v & Mask(w)
}

func TestFoldedReset(t *testing.T) {
	h := NewHistory(20)
	f := NewFolded(16, 8)
	for i := 0; i < 30; i++ {
		h.Push(i%3 == 0)
		f.Update(h)
	}
	h.Reset()
	f.Reset()
	if f.Value() != 0 {
		t.Fatal("Reset did not clear folded image")
	}
}

func TestMask(t *testing.T) {
	if Mask(0) != 0 || Mask(3) != 7 || Mask(64) != ^uint64(0) {
		t.Fatal("Mask wrong")
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 4096: 12}
	for n, want := range cases {
		if got := Log2(n); got != want {
			t.Errorf("Log2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []uint64{1, 2, 4, 8, 4096} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []uint64{0, 3, 6, 4097} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	g := rng.NewXoshiro256(77)
	z := NewZipf(1000, 1.0)
	var first, rest int
	for i := 0; i < 100000; i++ {
		if z.Sample(g) < 10 {
			first++
		} else {
			rest++
		}
	}
	// With s=1 over 1000 ranks the top 10 ranks carry ~39% of the mass.
	p := float64(first) / 100000
	if p < 0.30 || p > 0.50 {
		t.Fatalf("Zipf top-10 mass %v, want ~0.39", p)
	}
}

func TestZipfRangeProperty(t *testing.T) {
	g := rng.NewXoshiro256(5)
	z := NewZipf(50, 0.8)
	for i := 0; i < 10000; i++ {
		r := z.Sample(g)
		if r < 0 || r >= 50 {
			t.Fatalf("Zipf sample out of range: %d", r)
		}
	}
}
