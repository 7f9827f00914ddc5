package nn

import (
	"fmt"
	"math/rand/v2"

	"nazar/internal/tensor"
)

// Network is a sequential stack of layers ending in a logit projection.
//
// A Network is NOT safe for concurrent use: forward and backward passes
// cache activations inside the layers. Share a network across goroutines
// by cloning it (Clone) or by serializing access externally.
type Network struct {
	LayersList []Layer
	// hidden caches the input to the final layer from the most recent
	// Forward call; detectors such as Mahalanobis distance read it as
	// the penultimate feature representation.
	hidden *tensor.Matrix
	// params caches the flattened parameter list; LayersList is fixed
	// after construction, so it is built once. paramLayer[i] is the
	// index in LayersList of the layer owning params[i].
	params     []*Param
	paramLayer []int
	// oneIn is the reused single-example wrapper behind LogitsOne.
	oneIn tensor.Matrix
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(layers ...Layer) *Network { return &Network{LayersList: layers} }

// Forward runs the batch through all layers in the given mode and returns
// the logits. Adjacent (Dense|BatchNorm, ReLU) pairs run as one fused
// kernel pass — bit-identical to the unfused sequence (pinned by
// TestForwardFusionBitIdentical) but touching each activation once.
func (n *Network) Forward(x *tensor.Matrix, mode Mode) *tensor.Matrix {
	h := x
	layers := n.LayersList
	last := len(layers) - 1
	for i := 0; i < len(layers); {
		if i == last {
			n.hidden = h
		}
		// Fuse layer+ReLU unless the ReLU is the final layer (the
		// hidden bookkeeping above needs its input observable).
		if i+1 < last {
			if r, ok := layers[i+1].(*ReLU); ok {
				if f, ok := layers[i].(fusedReLULayer); ok {
					h = f.forwardFusedReLU(h, mode, r)
					i += 2
					continue
				}
			}
		}
		h = layers[i].Forward(h, mode)
		i++
	}
	return h
}

// Backward propagates dL/dlogits back through the network, accumulating
// the gradients of unfrozen parameters, and returns dL/dinput (used by
// Odin-style detectors that perturb the input).
func (n *Network) Backward(dout *tensor.Matrix) *tensor.Matrix {
	g := dout
	for i := len(n.LayersList) - 1; i >= 0; i-- {
		g = n.LayersList[i].Backward(g)
	}
	return g
}

// BackwardParams is Backward for callers that only need parameter
// gradients (training and adaptation loops). It accumulates the same
// gradients, bit for bit, but stops at the earliest layer that owns an
// unfrozen parameter: that layer computes no input gradient and the
// layers below it are not visited. Under FreezeExceptBN this skips the
// whole first Dense layer; with every parameter frozen it does nothing.
func (n *Network) BackwardParams(dout *tensor.Matrix) {
	first := n.firstTrainable()
	if first < 0 {
		return
	}
	g := dout
	for i := len(n.LayersList) - 1; i > first; i-- {
		g = n.LayersList[i].Backward(g)
	}
	if l, ok := n.LayersList[first].(paramGradLayer); ok {
		l.accumulateGrads(g)
	} else {
		n.LayersList[first].Backward(g)
	}
}

// firstTrainable returns the index of the earliest layer owning an
// unfrozen parameter, or -1 when every parameter is frozen. It reads the
// cached parameter list, so it does not allocate.
func (n *Network) firstTrainable() int {
	for i, p := range n.Params() {
		if !p.Frozen {
			return n.paramLayer[i]
		}
	}
	return -1
}

// Hidden returns the cached penultimate features of the last Forward.
func (n *Network) Hidden() *tensor.Matrix { return n.hidden }

// Params returns all learnable parameters in layer order. The slice is
// cached: it is built on first use and must not be mutated by callers.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for i, l := range n.LayersList {
			for _, p := range l.Params() {
				n.params = append(n.params, p)
				n.paramLayer = append(n.paramLayer, i)
			}
		}
	}
	return n.params
}

// ZeroGrads clears every unfrozen parameter gradient. Frozen gradients
// are already zero: backward never writes them.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		if !p.Frozen {
			p.Grad.Zero()
		}
	}
}

// FreezeAll marks every parameter frozen and clears its gradient, so a
// gradient accumulated before freezing cannot linger.
func (n *Network) FreezeAll() {
	for _, p := range n.Params() {
		if !p.Frozen {
			p.Grad.Zero()
			p.Frozen = true
		}
	}
}

// UnfreezeAll marks every parameter trainable.
func (n *Network) UnfreezeAll() {
	for _, p := range n.Params() {
		p.Frozen = false
	}
}

// FreezeExceptBN freezes every parameter except batch-norm γ/β — the TENT
// configuration.
func (n *Network) FreezeExceptBN() {
	n.FreezeAll()
	for _, l := range n.LayersList {
		if bn, ok := l.(*BatchNorm); ok {
			for _, p := range bn.Params() {
				p.Frozen = false
			}
		}
	}
}

// BatchNorms returns the network's batch-norm layers in order.
func (n *Network) BatchNorms() []*BatchNorm {
	var bns []*BatchNorm
	for _, l := range n.LayersList {
		if bn, ok := l.(*BatchNorm); ok {
			bns = append(bns, bn)
		}
	}
	return bns
}

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	c := &Network{LayersList: make([]Layer, len(n.LayersList))}
	for i, l := range n.LayersList {
		c.LayersList[i] = l.Clone()
	}
	return c
}

// Logits runs an Eval-mode forward pass.
func (n *Network) Logits(x *tensor.Matrix) *tensor.Matrix { return n.Forward(x, Eval) }

// LogitsOne returns the logit vector for a single example. The returned
// slice aliases network scratch and is valid until the next forward
// pass.
func (n *Network) LogitsOne(x []float64) []float64 {
	n.oneIn.Rows, n.oneIn.Cols, n.oneIn.Data = 1, len(x), x
	return n.Logits(&n.oneIn).Row(0)
}

// Predict returns the argmax class per example in Eval mode.
func (n *Network) Predict(x *tensor.Matrix) []int {
	logits := n.Logits(x)
	out := make([]int, logits.Rows)
	for i := range out {
		c, _ := tensor.ArgMax(logits.Row(i))
		out[i] = c
	}
	return out
}

// PredictOne returns the predicted class and its softmax confidence (MSP)
// for a single example.
func (n *Network) PredictOne(x []float64) (class int, msp float64) {
	logits := n.LogitsOne(x)
	probs := tensor.Softmax(logits)
	return tensor.ArgMax(probs)
}

// Accuracy evaluates classification accuracy on (x, labels).
func (n *Network) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	preds := n.Predict(x)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// NumParams returns the total learnable scalar count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

// SizeBytes returns the serialized size of all parameters plus BN running
// statistics, at 8 bytes per scalar.
func (n *Network) SizeBytes() int {
	total := n.NumParams() * 8
	for _, bn := range n.BatchNorms() {
		total += (len(bn.RunMean) + len(bn.RunVar)) * 8
	}
	return total
}

// Arch names a model architecture analogue. The three variants stand in
// for the paper's ResNet18/34/50: they differ in depth and width the way
// the ResNets do, and all carry batch-norm layers for TENT.
type Arch string

const (
	// ArchResNet18 is the smallest analogue (2 blocks, narrow).
	ArchResNet18 Arch = "resnet18"
	// ArchResNet34 is the middle analogue (3 blocks).
	ArchResNet34 Arch = "resnet34"
	// ArchResNet50 is the largest analogue (4 blocks, wide).
	ArchResNet50 Arch = "resnet50"
)

// Archs lists the supported architectures in ascending capacity.
var Archs = []Arch{ArchResNet18, ArchResNet34, ArchResNet50}

// blocksAndWidth maps an Arch to (hidden blocks, hidden width).
func blocksAndWidth(a Arch) (int, int) {
	switch a {
	case ArchResNet18:
		return 2, 48
	case ArchResNet34:
		return 3, 64
	case ArchResNet50:
		return 4, 96
	default:
		panic(fmt.Sprintf("nn: unknown arch %q", a))
	}
}

// NewClassifier builds a BN-equipped MLP classifier: each hidden block is
// Dense→BatchNorm→ReLU, followed by a final Dense logit projection.
func NewClassifier(arch Arch, inputDim, classes int, rng *rand.Rand) *Network {
	blocks, width := blocksAndWidth(arch)
	var layers []Layer
	in := inputDim
	for i := 0; i < blocks; i++ {
		layers = append(layers, NewDense(in, width, rng), NewBatchNorm(width), NewReLU())
		in = width
	}
	layers = append(layers, NewDense(in, classes, rng))
	return NewNetwork(layers...)
}
