package adapt

import (
	"testing"

	"nazar/internal/nn"
	"nazar/internal/tensor"
)

// TestAdaptSteadyStateAllocs pins the TENT hot loop: once the runner's
// buffers and the optimizer state are warm, an adaptation step (gather,
// then runner.tentStep — forward, entropy + reliability filter,
// params-only backward, Adam — exactly as AdaptContext runs it) performs
// no matrix allocations at pool width 1.
func TestAdaptSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(21, 4)
	net := nn.NewClassifier(nn.ArchResNet34, 24, 6, rng)
	net.FreezeExceptBN()
	opt := nn.NewAdam(1e-3)

	samples := tensor.New(64, 24)
	for i := range samples.Data {
		samples.Data[i] = rng.NormFloat64()
	}
	idx := make([]int, samples.Rows)
	for i := range idx {
		idx[i] = i
	}

	var run runner
	step := func() {
		run.tentStep(net, opt, run.gatherRows(samples, idx), 0.9)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n > 0.5 {
		t.Fatalf("steady-state TENT step allocates %v per run, want ~0", n)
	}
}
