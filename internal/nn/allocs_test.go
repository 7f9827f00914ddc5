package nn

import (
	"math"
	"testing"

	"nazar/internal/tensor"
)

// unfusedForward runs the network layer by layer, bypassing the fusion
// peephole in Network.Forward — the reference path for the fusion
// differential tests.
func unfusedForward(n *Network, x *tensor.Matrix, mode Mode) *tensor.Matrix {
	h := x
	for _, l := range n.LayersList {
		h = l.Forward(h, mode)
	}
	return h
}

// TestForwardFusionBitIdentical pins the fused (Dense|BatchNorm)+ReLU
// forward against the plain layer-by-layer sequence: logits and every
// parameter gradient must agree bit-for-bit in every mode.
func TestForwardFusionBitIdentical(t *testing.T) {
	for _, mode := range []Mode{Train, Eval, Adapt} {
		rng := tensor.NewRand(42, 9)
		fused := NewClassifier(ArchResNet34, 24, 6, rng)
		plain := fused.Clone()
		x := randBatch(7, 17, 24)

		ly := fused.Forward(x, mode)
		ry := unfusedForward(plain, x, mode)
		if ly.Rows != ry.Rows || ly.Cols != ry.Cols {
			t.Fatalf("%v: shape mismatch", mode)
		}
		for i := range ry.Data {
			if math.Float64bits(ly.Data[i]) != math.Float64bits(ry.Data[i]) {
				t.Fatalf("%v: fused logits diverge at %d: %v vs %v", mode, i, ly.Data[i], ry.Data[i])
			}
		}

		// Backward through both paths must produce identical gradients
		// (the fused forward fills the ReLU masks the backward needs).
		_, dl := CrossEntropy(ly, make([]int, ly.Rows))
		dr := dl.Clone()
		fused.Backward(dl)
		plain.Backward(dr)
		fp, pp := fused.Params(), plain.Params()
		for k := range fp {
			for i := range fp[k].Grad.Data {
				if math.Float64bits(fp[k].Grad.Data[i]) != math.Float64bits(pp[k].Grad.Data[i]) {
					t.Fatalf("%v: grad %s diverges at %d", mode, fp[k].Name, i)
				}
			}
		}

		// BN running statistics must also match (the fused pass computes
		// them identically).
		fb, pb := fused.BatchNorms(), plain.BatchNorms()
		for k := range fb {
			for j := range fb[k].RunMean {
				if fb[k].RunMean[j] != pb[k].RunMean[j] || fb[k].RunVar[j] != pb[k].RunVar[j] {
					t.Fatalf("%v: BN running stats diverge", mode)
				}
			}
		}
	}
}

// TestDenseFusedReLUBitIdentical exercises the Dense+ReLU fused kernel
// directly (the stock classifier only has BN+ReLU adjacency).
func TestDenseFusedReLUBitIdentical(t *testing.T) {
	rng := tensor.NewRand(3, 3)
	net := NewNetwork(NewDense(20, 30, rng), NewReLU(), NewDense(30, 5, rng))
	plain := net.Clone()
	x := randBatch(11, 13, 20)

	ly := net.Forward(x, Eval)
	ry := unfusedForward(plain, x, Eval)
	for i := range ry.Data {
		if math.Float64bits(ly.Data[i]) != math.Float64bits(ry.Data[i]) {
			t.Fatalf("fused dense+relu diverges at %d", i)
		}
	}
	_, dl := CrossEntropy(ly, make([]int, ly.Rows))
	dr := dl.Clone()
	net.Backward(dl)
	plain.Backward(dr)
	fp, pp := net.Params(), plain.Params()
	for k := range fp {
		for i := range fp[k].Grad.Data {
			if math.Float64bits(fp[k].Grad.Data[i]) != math.Float64bits(pp[k].Grad.Data[i]) {
				t.Fatalf("grad %s diverges at %d", fp[k].Name, i)
			}
		}
	}
}

// TestNetworkSteadyStateAllocs pins the tentpole claim: once warm, a
// full supervised step (forward, loss, backward, optimizer) performs no
// matrix allocations at pool width 1.
func TestNetworkSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(5, 6)
	net := NewClassifier(ArchResNet50, 32, 8, rng)
	opt := NewAdam(1e-3)
	x := randBatch(13, 64, 32)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 8
	}
	var dlogits tensor.Matrix
	step := func() {
		net.ZeroGrads()
		logits := net.Forward(x, Train)
		_, grad := CrossEntropyInto(&dlogits, logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	for i := 0; i < 3; i++ {
		step() // warm scratch and optimizer state
	}
	if n := testing.AllocsPerRun(10, step); n > 0.5 {
		t.Fatalf("steady-state training step allocates %v per run, want ~0", n)
	}
}

// TestBackwardParamsSteadyStateAllocs pins the params-only backward the
// training and adaptation loops run: finding the earliest trainable
// layer reads the cached parameter list, so a warm step allocates
// nothing at pool width 1, whether everything trains (nn.Fit) or only
// γ/β do (TENT).
func TestBackwardParamsSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	for _, tent := range []bool{false, true} {
		net := NewClassifier(ArchResNet50, 32, 8, tensor.NewRand(5, 7))
		mode := Train
		if tent {
			net.FreezeExceptBN()
			mode = Adapt
		}
		opt := NewAdam(1e-3)
		x := randBatch(14, 64, 32)
		var dlogits tensor.Matrix
		step := func() {
			net.ZeroGrads()
			_, grad := EntropyInto(&dlogits, net.Forward(x, mode))
			net.BackwardParams(grad)
			opt.Step(net.Params())
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if n := testing.AllocsPerRun(10, step); n > 0.5 {
			t.Fatalf("tent=%v: steady-state params-only step allocates %v per run, want ~0", tent, n)
		}
	}
}

// TestEvalForwardSteadyStateAllocs: pure inference must be allocation-
// free too (the on-device hot path).
func TestEvalForwardSteadyStateAllocs(t *testing.T) {
	tensor.SetMaxWorkers(1)
	defer tensor.SetMaxWorkers(0)

	rng := tensor.NewRand(8, 2)
	net := NewClassifier(ArchResNet18, 16, 4, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	net.LogitsOne(x) // warm scratch
	if n := testing.AllocsPerRun(50, func() {
		net.LogitsOne(x)
	}); n > 0.5 {
		t.Fatalf("steady-state LogitsOne allocates %v per run, want ~0", n)
	}
}

// TestBranchFreeClampMatchesBranch pins the bit-mask select behind the
// fused BatchNorm+ReLU clamp and ReLU.Backward: it yields v exactly when
// kept and +0 otherwise, for negative values, -0, NaN and infinities
// too — the bits of the branch it replaced. A -0 in place of +0 would
// vanish in the next layer's zero skip, so the network-level tests
// cannot see it.
func TestBranchFreeClampMatchesBranch(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{1.5, -1.5, 0, negZero, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for _, v := range specials {
		for _, keep := range []bool{false, true} {
			want := 0.0
			if keep {
				want = v
			}
			if got := keepIf(v, keep); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("keepIf(%v, %v) = %#x, want %#x", v, keep, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	bn, r := NewBatchNorm(4), NewReLU()
	x := randBatch(17, 9, 4)
	y := bn.forwardFusedReLU(x, Train, r)
	for i, v := range y.Data {
		if r.mask[i] != (v > 0) || (!r.mask[i] && math.Float64bits(v) != 0) {
			t.Fatalf("fused BN+ReLU output %d: %v (%#x) with mask %v", i, v, math.Float64bits(v), r.mask[i])
		}
	}
	dout := tensor.New(9, 4)
	for i := range dout.Data {
		dout.Data[i] = specials[i%len(specials)]
	}
	dx := r.Backward(dout)
	for i, v := range dx.Data {
		want := uint64(0)
		if r.mask[i] {
			want = math.Float64bits(dout.Data[i])
		}
		if math.Float64bits(v) != want {
			t.Fatalf("ReLU.Backward %d: got %#x want %#x (mask %v)", i, math.Float64bits(v), want, r.mask[i])
		}
	}
}
