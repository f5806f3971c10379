package bitutil_test

import (
	"fmt"
	"testing"

	"xorbp/internal/bitutil"
	"xorbp/internal/rng"
	"xorbp/internal/snap"
	"xorbp/internal/tage"
	"xorbp/internal/tagescl"
)

// foldBank is one thread's TAGE history state: the history register
// (one bit longer than the longest table history, as TAGE sizes it) and
// one packed fold word per table.
type foldBank struct {
	cfg   tage.Config
	hist  *bitutil.History
	folds []bitutil.FoldWord
}

func newFoldBank(cfg tage.Config) *foldBank {
	b := &foldBank{cfg: cfg, hist: bitutil.NewHistory(cfg.HistLengths[len(cfg.HistLengths)-1] + 1)}
	for i, l := range cfg.HistLengths {
		b.folds = append(b.folds, bitutil.NewFoldWord(l, cfg.TableBits[i], cfg.TagBits[i]))
	}
	return b
}

func (b *foldBank) push(taken bool) {
	b.hist.PushFolds(taken, b.folds)
}

// snapshot writes the bank the way TAGE writes a thread: the history,
// then the folds lane by lane.
func (b *foldBank) snapshot(w *snap.Writer) {
	b.hist.Snapshot(w)
	for k := 0; k < 3; k++ {
		for i := range b.folds {
			b.folds[i].SnapshotLane(w, k)
		}
	}
}

func (b *foldBank) restore(r *snap.Reader) {
	b.hist.Restore(r)
	for k := 0; k < 3; k++ {
		for i := range b.folds {
			b.folds[i].RestoreLane(r, k)
		}
	}
}

// check compares every packed fold with three folds recomputed from the
// raw history bits, and the hot-path views (Word's index bits, TagHash)
// with the same reference.
func (b *foldBank) check(t *testing.T, step int) {
	t.Helper()
	for i := range b.folds {
		f := &b.folds[i]
		l := b.cfg.HistLengths[i]
		widths := [3]uint{b.cfg.TableBits[i], b.cfg.TagBits[i], b.cfg.TagBits[i] - 1}
		var want [3]uint64
		for k, w := range widths {
			want[k] = bitutil.DirectFold(b.hist, l, w)
			if got := f.Lane(k); got != want[k] {
				t.Fatalf("table %d (L=%d) lane %d step %d: packed %#x, reference %#x", i, l, k, step, got, want[k])
			}
		}
		if got := f.Word() & bitutil.Mask(widths[0]); got != want[0] {
			t.Fatalf("table %d step %d: index bits %#x, reference %#x", i, step, got, want[0])
		}
		tagMask := bitutil.Mask(widths[1])
		if got, ref := f.TagHash()&tagMask, (want[1]^want[2]<<1)&tagMask; got != ref {
			t.Fatalf("table %d step %d: tag hash %#x, reference %#x", i, step, got, ref)
		}
	}
}

// TestFoldWordMatchesDirectFold is the fold model: after every push of a
// seeded random stream, each table's packed fold word holds exactly the
// three folds (index, tag-0, tag-1) recomputed from the raw history, for
// every table geometry of the FPGA TAGE, LTAGE and TAGE-SC-L. The
// streams run past the history ring's size, so the ring wraps, and a
// copy restored from a mid-stream snapshot must track the reference
// from there on.
func TestFoldWordMatchesDirectFold(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cfg := range []tage.Config{tage.FPGAConfig(), tage.LTAGEConfig(), tagescl.Gem5Config().TAGE} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				g := rng.NewXoshiro256(seed)
				b := newFoldBank(cfg)
				steps := 2*int(b.hist.Len()) + 600
				cut := steps / 2
				var restored *foldBank
				for step := 0; step < steps; step++ {
					// Biased streams leave long runs, which exercise
					// folds of all-ones and all-zeros windows.
					taken := g.Bool(0.7)
					b.push(taken)
					b.check(t, step)
					if restored != nil {
						restored.push(taken)
						restored.check(t, step)
					}
					if step == cut {
						var w snap.Writer
						b.snapshot(&w)
						restored = newFoldBank(cfg)
						r := snap.NewReader(w.Bytes())
						restored.restore(r)
						if err := r.Err(); err != nil || r.Remaining() != 0 {
							t.Fatalf("restore: err %v, %d bytes left", err, r.Remaining())
						}
						restored.check(t, step)
					}
				}
			})
		}
	}
}

// TestFoldWordRejectsUnpackableLanes pins the packing limits: three
// lanes and their guard bits must fit one word, and an index fold twice
// the tag width would land a wrap product on tag-0's bit 0.
func TestFoldWordRejectsUnpackableLanes(t *testing.T) {
	bitutil.NewFoldWord(1800, 30, 16) // 30+1 + 16+1 + 15+1 = 64 bits
	for _, c := range []struct{ idx, tag uint }{{31, 16}, {12, 1}, {0, 8}, {16, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("idx %d tag %d did not panic", c.idx, c.tag)
				}
			}()
			bitutil.NewFoldWord(100, c.idx, c.tag)
		}()
	}
}

// BenchmarkHistoryAdvance times one thread's per-branch history advance
// as TAGE runs it — the history push, then each table's leaving-bit read
// and packed fold push — for each TAGE-family geometry.
func BenchmarkHistoryAdvance(b *testing.B) {
	for _, cfg := range []tage.Config{tage.FPGAConfig(), tage.LTAGEConfig(), tagescl.Gem5Config().TAGE} {
		b.Run(cfg.Name, func(b *testing.B) {
			bank := newFoldBank(cfg)
			g := rng.NewXoshiro256(3)
			stream := make([]bool, 4096)
			for i := range stream {
				stream[i] = g.Bool(0.6)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank.push(stream[i&4095])
			}
		})
	}
}

// TestFoldWordAcceptedGeometries runs every lane geometry NewFoldWord
// accepts, over index widths up to 24 and every tag width that fits,
// against the reference folds: the constructor's collision check must
// let through only geometries whose wrap is right.
func TestFoldWordAcceptedGeometries(t *testing.T) {
	g := rng.NewXoshiro256(5)
	accepted := 0
	for idx := uint(1); idx <= 24; idx++ {
		for tag := uint(2); idx+2*tag+2 <= 64; tag++ {
			l := 3*idx + tag
			var fs []bitutil.FoldWord
			func() {
				defer func() { recover() }()
				fs = []bitutil.FoldWord{bitutil.NewFoldWord(l, idx, tag)}
			}()
			if fs == nil {
				continue
			}
			accepted++
			h := bitutil.NewHistory(l + 1)
			for step := 0; step < 3*int(l)+40; step++ {
				h.PushFolds(g.Bool(0.5), fs)
				for k, w := range [3]uint{idx, tag, tag - 1} {
					if got, want := fs[0].Lane(k), bitutil.DirectFold(h, l, w); got != want {
						t.Fatalf("idx %d tag %d lane %d step %d: packed %#x, reference %#x", idx, tag, k, step, got, want)
					}
				}
			}
		}
	}
	if accepted < 200 {
		t.Fatalf("only %d geometries accepted", accepted)
	}
}

// TestFoldWordRestoreLaneMasks restores all-ones folds, as a corrupt
// snapshot could carry: each lane keeps only its own width, so no bit
// spills into a guard or a neighbouring lane.
func TestFoldWordRestoreLaneMasks(t *testing.T) {
	f := bitutil.NewFoldWord(130, 12, 12)
	var w snap.Writer
	w.U64(^uint64(0))
	w.U64(0)
	w.U64(^uint64(0))
	r := snap.NewReader(w.Bytes())
	for k := 0; k < 3; k++ {
		f.RestoreLane(r, k)
	}
	for k, want := range []uint64{bitutil.Mask(12), 0, bitutil.Mask(11)} {
		if got := f.Lane(k); got != want {
			t.Fatalf("lane %d restored as %#x, want %#x", k, got, want)
		}
	}
	if got, want := f.TagHash()&bitutil.Mask(12), bitutil.Mask(11)<<1; got != want {
		t.Fatalf("tag hash %#x after restore, want %#x", got, want)
	}
}
