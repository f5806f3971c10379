package perceptron

import (
	"testing"

	"xorbp/internal/core"
)

func newP(m core.Mechanism) (*Perceptron, *core.Controller) {
	ctrl := core.NewController(core.OptionsFor(m), 1)
	return New(DefaultConfig(), ctrl), ctrl
}

// TestLearnsHistoryCorrelatedBranch: the perceptron's defining ability —
// a branch whose outcome is a parity-like function of recent history,
// which no saturating counter can track.
func TestLearnsHistoryCorrelatedBranch(t *testing.T) {
	p, _ := newP(core.Baseline)
	d := core.Domain{Thread: 0, Priv: core.User}
	const pc = 0x40_1000

	// Outcome pattern: alternating pairs (T,T,N,N,...) — fully determined
	// by the previous two outcomes.
	outcome := func(i int) bool { return i%4 < 2 }
	correct := 0
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		pred := p.Predict(d, pc)
		want := outcome(i)
		if pred == want {
			correct++
		}
		p.Update(d, pc, want)
	}
	// Score only the second half (after training).
	correct = 0
	for i := rounds; i < rounds*2; i++ {
		if p.Predict(d, pc) == outcome(i) {
			correct++
		}
		p.Update(d, pc, outcome(i))
	}
	if acc := float64(correct) / rounds; acc < 0.95 {
		t.Fatalf("trained accuracy %.3f on a history-determined branch, want > 0.95", acc)
	}
}

// TestBiasOnlyBranch: a heavily biased branch is learned through the
// bias weight alone.
func TestBiasOnlyBranch(t *testing.T) {
	p, _ := newP(core.Baseline)
	d := core.Domain{Thread: 0, Priv: core.User}
	const pc = 0x40_2000
	for i := 0; i < 64; i++ {
		p.Predict(d, pc)
		p.Update(d, pc, true)
	}
	if !p.Predict(d, pc) {
		t.Fatal("always-taken branch predicted not-taken after training")
	}
}

// TestKeyRotationIsolatesTrainedState: under Noisy-XOR-PHT a context
// switch rotates the domain keys, so the trained weights decode as
// garbage — the isolation property the security sweep measures.
func TestKeyRotationIsolatesTrainedState(t *testing.T) {
	p, ctrl := newP(core.NoisyXOR)
	d := core.Domain{Thread: 0, Priv: core.User}
	const pc = 0x40_3000
	for i := 0; i < 256; i++ {
		p.Predict(d, pc)
		p.Update(d, pc, true)
	}
	if !p.Predict(d, pc) {
		t.Fatal("trained branch not predicted taken before rotation")
	}
	// Rotate: the same domain now holds fresh keys; both the row index
	// and the weight decoding change, so the strong bias must not
	// survive. Check across many branches: some garbled rows can still
	// decode positive by chance, but most training must be lost.
	ctrl.ContextSwitch(0)
	survived := 0
	const branches = 128
	for b := 0; b < branches; b++ {
		pc2 := uint64(0x50_0000 + b*4)
		for i := 0; i < 64; i++ {
			p.Predict(d, pc2)
			p.Update(d, pc2, true)
		}
	}
	ctrl.ContextSwitch(0)
	for b := 0; b < branches; b++ {
		if p.Predict(d, uint64(0x50_0000+b*4)) {
			survived++
		}
	}
	if survived > branches*3/4 {
		t.Fatalf("%d/%d trained branches survived a key rotation — no isolation", survived, branches)
	}
}

// TestFlushResetsWeights: flush mechanisms restore the weak reset state.
func TestFlushResetsWeights(t *testing.T) {
	p, _ := newP(core.CompleteFlush)
	d := core.Domain{Thread: 0, Priv: core.User}
	const pc = 0x40_4000
	for i := 0; i < 128; i++ {
		p.Predict(d, pc)
		p.Update(d, pc, true)
	}
	p.FlushAll()
	s := p.scratch[0]
	p.Predict(d, pc)
	if p.scratch[0].sum != 0 {
		t.Fatalf("post-flush margin = %d, want 0 (reset weights)", p.scratch[0].sum)
	}
	_ = s
}

// TestStorageBits: 512 rows x 13 weights x 8 bits.
func TestStorageBits(t *testing.T) {
	p, _ := newP(core.Baseline)
	want := uint64(512 * 13 * 8)
	if got := p.StorageBits(); got != want {
		t.Fatalf("storage = %d bits, want %d", got, want)
	}
	if p.Name() != "perceptron" {
		t.Fatalf("name = %q", p.Name())
	}
}

// TestWeightSaturation: the training step clamps a stored weight at the
// signed width, and the reset value decodes as 0.
func TestWeightSaturation(t *testing.T) {
	p, _ := newP(core.Baseline)
	d := core.Domain{}
	w := p.weights[0]
	for i := 0; i < 1000; i++ {
		w.Count(d, 0, 0, p.cfg.WeightBits, true)
	}
	if got := p.decode(w.Get(d, 0)); got != 127 {
		t.Fatalf("positive saturation = %d, want 127", got)
	}
	for i := 0; i < 1000; i++ {
		w.Count(d, 0, 0, p.cfg.WeightBits, false)
	}
	if got := p.decode(w.Get(d, 0)); got != -128 {
		t.Fatalf("negative saturation = %d, want -128", got)
	}
	if got := p.decode(w.Get(d, 1)); got != 0 {
		t.Fatalf("reset weight = %d, want 0", got)
	}
}

// TestDeterminism: identical histories produce identical predictions.
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		p, _ := newP(core.NoisyXOR)
		d := core.Domain{Thread: 0, Priv: core.User}
		var out []bool
		for i := 0; i < 200; i++ {
			pc := uint64(0x40_0000 + (i%17)*4)
			out = append(out, p.Predict(d, pc))
			p.Update(d, pc, i%3 == 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d diverged", i)
		}
	}
}
