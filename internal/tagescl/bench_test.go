package tagescl

import (
	"testing"

	"xorbp/internal/core"
	"xorbp/internal/predictor"
	"xorbp/internal/workload"
)

// BenchmarkPredictUpdateGcc drives TAGE-SC-L's fused predict+update path
// with the branch-dense gcc event stream under the pass-through guard
// (Baseline) and both encoding mechanisms, as internal/tage's benchmark
// of the same name does for the FPGA TAGE and LTAGE. TAGE-SC-L carries
// the longest history (1801 bits) and the most tagged tables (16), so
// it is where the per-branch history advance costs the most.
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
	for _, m := range []core.Mechanism{core.Baseline, core.XOR, core.NoisyXOR} {
		b.Run(m.String(), func(b *testing.B) {
			p := New(Gem5Config(), ctrl(m))
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
