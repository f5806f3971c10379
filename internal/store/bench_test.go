package store

import (
	"testing"

	"xorbp/internal/core"
)

// BenchmarkWordArray times one table access per iteration: Get (the
// out-of-line read), Reader (the inlinable per-domain read view), Update
// (read-modify-write through a closure) and Count (the closure-free
// counter step), each under a pass-through guard (Baseline) and an
// encoding one (XOR-BP with the Enhanced word-key schedule), over a
// packed layout (2-bit entries, 32 per word) and a one-per-word layout
// (11-bit entries).
func BenchmarkWordArray(b *testing.B) {
	d := core.Domain{Thread: 1, Priv: core.User}
	for _, guard := range []struct {
		name string
		m    core.Mechanism
	}{{"plain", core.Baseline}, {"encoded", core.XOR}} {
		for _, layout := range []struct {
			name      string
			entryBits uint
		}{{"packed", 2}, {"word", 11}} {
			a := NewWordArray(guardFor(guard.m, true), 12, layout.entryBits, 1)
			mask := a.Len() - 1
			prefix := guard.name + "/" + layout.name + "/"
			b.Run(prefix+"Get", func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					sink += a.Get(d, uint64(i*0x9e37)&mask)
				}
				_ = sink
			})
			b.Run(prefix+"Reader", func(b *testing.B) {
				rd, ok := a.Reader(d)
				if !ok {
					b.Skip("codec has no inline read path")
				}
				var sink uint64
				for i := 0; i < b.N; i++ {
					sink += rd.Get(uint64(i*0x9e37) & mask)
				}
				_ = sink
			})
			b.Run(prefix+"Update", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Update(d, uint64(i*0x9e37)&mask, func(v uint64) uint64 { return v + 1 })
				}
			})
			b.Run(prefix+"Count", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.Count(d, uint64(i*0x9e37)&mask, 0, 2, i&1 == 0)
				}
			})
		}
	}
}
