package tage

import (
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/workload"
)

// BenchmarkPredictUpdateGcc drives the fused predict+update path with
// the branch-dense gcc event stream — the hottest cell of the
// performance sweeps — under the pass-through guard (Baseline) and both
// encoding mechanisms: XOR-BP reads every table through its store.Reader
// with the Enhanced word-key schedule, and Noisy-XOR-BP adds the index
// scrambler. The loop allocates nothing; bpvet's hotpath analysis guards
// the zero-alloc property of every function on this path.
func BenchmarkPredictUpdateGcc(b *testing.B) {
	gen := workload.NewGenerator(workload.MustByName("gcc"), 11)
	evs := make([]workload.BranchEvent, 4096)
	var pcs []uint64
	var takens []bool
	for len(pcs) < 4096 {
		n := gen.NextBatch(evs)
		for _, ev := range evs[:n] {
			if ev.Class == predictor.CondDirect {
				pcs = append(pcs, ev.PC)
				takens = append(takens, ev.Taken)
			}
		}
	}
	for _, cfg := range []struct {
		name string
		cfg  func() Config
	}{
		{"fpga", FPGAConfig},
		{"ltage", LTAGEConfig},
	} {
		for _, m := range []core.Mechanism{core.Baseline, core.XOR, core.NoisyXOR} {
			b.Run(cfg.name+"/"+m.String(), func(b *testing.B) {
				p := New(cfg.cfg(), ctrl(m))
				dom := d(0)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i & 4095
					p.PredictUpdate(dom, pcs[j], takens[j])
				}
			})
		}
	}
}
