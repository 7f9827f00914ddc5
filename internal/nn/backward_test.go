package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"nazar/internal/tensor"
)

const goldenBackwardPath = "testdata/golden_backward_v1.bin"

// backwardRig builds a seeded network and a batch, runs one Adapt-mode
// forward pass and returns the entropy gradient of its logits.
func backwardRig(arch Arch) (*Network, *tensor.Matrix) {
	rng := tensor.NewRand(0xB4C, 7)
	net := NewClassifier(arch, 20, 6, rng)
	x := tensor.New(16, 20)
	x.RandNormal(rng, 0.3, 1.2)
	_, dlogits := Entropy(net.Forward(x, Adapt))
	return net, dlogits
}

func appendBits(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// TestGoldenBackward pins Network.Backward on an unfrozen network — the
// returned input gradient Odin and GOdin perturb along, plus every
// parameter gradient — against bytes captured before backward became
// frozen-aware. Set UPDATE_GOLDEN=1 to regenerate after a deliberate
// numerics change.
func TestGoldenBackward(t *testing.T) {
	net, dlogits := backwardRig(ArchResNet34)
	dx := net.Backward(dlogits)
	got := appendBits(nil, dx.Data)
	for _, p := range net.Params() {
		got = appendBits(got, p.Grad.Data)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenBackwardPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden backward regenerated")
	}
	want, err := os.ReadFile(goldenBackwardPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("input or parameter gradients diverge from the golden bytes")
	}
}

// TestFrozenGradsStayZero: after a TENT step under FreezeExceptBN every
// frozen gradient is all-zero, through both backward entry points, and
// the optimizer leaves the frozen weights where they were.
func TestFrozenGradsStayZero(t *testing.T) {
	for _, params := range []bool{false, true} {
		net, dlogits := backwardRig(ArchResNet50)
		net.FreezeExceptBN()
		before := CaptureNet(net)
		if params {
			net.BackwardParams(dlogits)
		} else {
			net.Backward(dlogits)
		}
		for i, p := range net.Params() {
			if !p.Frozen {
				continue
			}
			for _, g := range p.Grad.Data {
				if g != 0 {
					t.Fatalf("params=%v: frozen param %d (%s) received a gradient", params, i, p.Name)
				}
			}
		}
		NewAdam(0.1).Step(net.Params())
		for i, p := range net.Params() {
			if !p.Frozen {
				continue
			}
			for j, w := range p.W.Data {
				if w != before.Params[i][j] {
					t.Fatalf("params=%v: frozen param %d (%s) moved", params, i, p.Name)
				}
			}
		}
	}
}

// TestFreezeAllClearsGrads: a gradient accumulated before freezing does
// not linger, so "frozen ⇒ zero Grad" holds whatever ran first.
func TestFreezeAllClearsGrads(t *testing.T) {
	net, dlogits := backwardRig(ArchResNet18)
	net.Backward(dlogits)
	net.FreezeExceptBN()
	for i, p := range net.Params() {
		if !p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("param %d (%s) frozen with a non-zero gradient", i, p.Name)
			}
		}
	}
}

// TestBackwardParamsMatchesBackward: the params-only backward leaves
// every trainable gradient bit-identical to Backward's, both under TENT's
// freezing (only γ/β train) and with everything trainable (nn.Fit).
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, tent := range []bool{true, false} {
		full, dfull := backwardRig(ArchResNet50)
		part, dpart := backwardRig(ArchResNet50)
		if tent {
			full.FreezeExceptBN()
			part.FreezeExceptBN()
		}
		full.Backward(dfull)
		part.BackwardParams(dpart)
		fp, pp := full.Params(), part.Params()
		for i := range fp {
			if fp[i].Frozen {
				continue
			}
			for j := range fp[i].Grad.Data {
				if math.Float64bits(fp[i].Grad.Data[j]) != math.Float64bits(pp[i].Grad.Data[j]) {
					t.Fatalf("tent=%v: param %d (%s) grad[%d] %v vs %v", tent, i, fp[i].Name, j,
						fp[i].Grad.Data[j], pp[i].Grad.Data[j])
				}
			}
		}
	}
}

// TestBackwardParamsStopsAtFirstTrainable: under FreezeExceptBN the first
// Dense layer is never visited (its input-gradient scratch stays unset),
// and with every parameter frozen nothing runs at all.
func TestBackwardParamsStopsAtFirstTrainable(t *testing.T) {
	net, dlogits := backwardRig(ArchResNet34)
	net.FreezeExceptBN()
	if got := net.firstTrainable(); got != 1 {
		t.Fatalf("first trainable layer %d, want 1 (the first BatchNorm)", got)
	}
	net.BackwardParams(dlogits)
	first := net.LayersList[0].(*Dense)
	if first.dx.Data != nil || first.dW.Data != nil {
		t.Fatal("params-only backward touched the first Dense layer")
	}
	if bn := net.LayersList[1].(*BatchNorm); bn.dx.Data != nil {
		t.Fatal("params-only backward computed the first BatchNorm's input gradient")
	}

	net.FreezeAll()
	if got := net.firstTrainable(); got != -1 {
		t.Fatalf("all-frozen first trainable %d, want -1", got)
	}
	net.BackwardParams(dlogits) // must be a no-op, not a panic
}
