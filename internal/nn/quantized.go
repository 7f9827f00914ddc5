package nn

// Quantized execution mode: true int8 storage and serving (DESIGN.md
// §5j). QuantizeInt8 converts a Dense[+BatchNorm][+ReLU] block network
// into a QuantizedNetwork whose forward pass runs entirely on the
// tensor package's dual-lane int8 kernels — weights live as per-channel
// int8 codes, activations flow between layers as int8 codes, and no
// float intermediate is ever materialized until the final logits.
//
// The requantization algebra folds everything per output channel j:
//
//	float block:  y_j = g_j·(Σ_k x_k·W_kj + b_j − μ_j) + β_j,
//	              g_j = γ_j/√(σ²_j+ε)      (eval-mode batch norm)
//	int8 block:   qy_j = clamp(round(acc_j·Mul_j + FBias_j)),
//	              acc_j = Σ_k qx_k·qW_kj   (int32)
//	              Mul_j   = g_j·sx·sw_j/sy
//	              FBias_j = (g_j·(b_j − μ_j) + β_j)/sy
//
// where sx is the layer's input activation scale, sw_j the weight
// column scale, and sy the output activation scale (the next layer's
// sx). Blocks without batch norm take g_j = 1, μ_j = β_j = 0. The final
// block skips the /sy requantization and emits float logits directly
// (Mul_j = g_j·sx·sw_j, FBias_j = g_j·(b_j − μ_j) + β_j).
//
// TENT interplay: adaptation trains BN γ/β (and refreshes running
// statistics) on the float network; the quantized layers keep pointers
// into those float layers, so Refold recomputes Mul/FBias from the
// updated BN state without touching the int8 weight codes. Serving
// never leaves int8 — only the per-channel epilogue vectors change.

import (
	"errors"
	"fmt"
	"math"

	"nazar/internal/tensor"
)

// quantBlock is one quantizable unit of a network: a Dense layer with
// its optional following BatchNorm and ReLU.
type quantBlock struct {
	dense *Dense
	bn    *BatchNorm
	relu  *ReLU
}

// quantBlocks groups a network's layers into Dense[+BatchNorm][+ReLU]
// blocks, the structure the int8 mode can fold. Any other layer
// arrangement is rejected.
func quantBlocks(net *Network) ([]quantBlock, error) {
	ls := net.LayersList
	var blocks []quantBlock
	for i := 0; i < len(ls); {
		d, ok := ls[i].(*Dense)
		if !ok {
			return nil, fmt.Errorf("nn: quantize: layer %d is %T, want Dense[+BatchNorm][+ReLU] blocks", i, ls[i])
		}
		b := quantBlock{dense: d}
		i++
		if i < len(ls) {
			if bn, ok := ls[i].(*BatchNorm); ok {
				if bn.Dim != d.Out {
					return nil, fmt.Errorf("nn: quantize: BatchNorm dim %d after Dense out %d", bn.Dim, d.Out)
				}
				b.bn = bn
				i++
			}
		}
		if i < len(ls) {
			if r, ok := ls[i].(*ReLU); ok {
				b.relu = r
				i++
			}
		}
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 {
		return nil, errors.New("nn: quantize: empty network")
	}
	if blocks[len(blocks)-1].relu != nil {
		return nil, errors.New("nn: quantize: final block must emit logits, not ReLU output")
	}
	return blocks, nil
}

// QuantizedLayer is one folded int8 block: packed per-channel weights
// plus the requantization epilogue vectors. The dense/bn pointers refer
// into the source float network so Refold can pick up adapted BN
// parameters.
type QuantizedLayer struct {
	// W holds the int8 weight codes (In×Out) with per-output-column
	// scales, packed for the dual-lane kernel.
	W *tensor.I8Matrix
	// Mul and FBias are the folded per-channel requantization epilogue
	// (see the package comment for the algebra).
	Mul, FBias []float64
	// ReLU records whether the block ends in an activation (applied in
	// the int8 domain by the fused kernel).
	ReLU bool
	// Final marks the logit block: no requantization, float output.
	Final bool
	// InScale and OutScale are the activation quantization scales on
	// either side of the block (OutScale is 0 on the final block).
	InScale, OutScale float64

	dense *Dense
	bn    *BatchNorm
}

// fold computes Mul/FBias from the current float-side parameters. It is
// called at build time and again by Refold after TENT updates the BN
// state.
func (l *QuantizedLayer) fold() {
	sw := l.W.Scales
	bias := l.dense.b.W.Data
	for j := range l.Mul {
		g, shift := 1.0, bias[j]
		if l.bn != nil {
			inv := 1 / math.Sqrt(l.bn.RunVar[j]+l.bn.Eps)
			g = l.bn.Gamma()[j] * inv
			shift = float64(g*(bias[j]-l.bn.RunMean[j])) + l.bn.Beta()[j]
		}
		mul := g * l.InScale * sw[j]
		if !l.Final {
			mul /= l.OutScale
			shift /= l.OutScale
		}
		l.Mul[j] = mul
		l.FBias[j] = shift
	}
}

// QuantizedNetwork is the int8 serving form of a Network. Build one
// with QuantizeInt8; after each TENT adaptation round on the source
// float network, call Refold to carry the updated BN state into the
// requantization epilogues.
//
// Like Network, a QuantizedNetwork is NOT safe for concurrent use: the
// forward pass reuses internal activation scratch.
type QuantizedNetwork struct {
	Layers []*QuantizedLayer
	// InDim and Classes mirror the source network's input and logit
	// widths.
	InDim, Classes int

	// Forward scratch: quantized input codes, ping-pong activation code
	// buffers, and the float logits output.
	qin   []int8
	act   [2][]int8
	out   tensor.Matrix
	oneIn tensor.Matrix
	sat   int64
}

// QuantizeInt8 converts net into true int8 storage: per-channel
// symmetric weight codes, activation scales calibrated on calX (a batch
// of representative inputs, e.g. training data), and batch-norm state
// folded into the requantization epilogues. The returned network keeps
// pointers into net's Dense/BatchNorm layers — adapt net with TENT,
// then Refold to propagate.
func QuantizeInt8(net *Network, calX *tensor.Matrix) (*QuantizedNetwork, error) {
	blocks, err := quantBlocks(net)
	if err != nil {
		return nil, err
	}
	scales, err := ActivationScales(net, calX)
	if err != nil {
		return nil, err
	}
	qn := &QuantizedNetwork{
		InDim:   blocks[0].dense.In,
		Classes: blocks[len(blocks)-1].dense.Out,
	}
	for i, b := range blocks {
		qw := tensor.QuantizeI8(b.dense.w.W)
		qw.Pack()
		l := &QuantizedLayer{
			W:       qw,
			Mul:     make([]float64, b.dense.Out),
			FBias:   make([]float64, b.dense.Out),
			ReLU:    b.relu != nil,
			Final:   i == len(blocks)-1,
			InScale: scales[i],
			dense:   b.dense,
			bn:      b.bn,
		}
		if !l.Final {
			l.OutScale = scales[i+1]
		}
		l.fold()
		qn.Layers = append(qn.Layers, l)
	}
	return qn, nil
}

// Refold recomputes every layer's requantization epilogue from the
// source network's current parameters — the cheap half of the TENT
// cycle: adaptation trains BN γ/β in float, Refold folds the result
// back into the int8 serving path. Weight codes are untouched.
func (q *QuantizedNetwork) Refold() {
	for _, l := range q.Layers {
		l.fold()
	}
}

// Logits runs the batch through the int8 path and returns float logits.
// The returned matrix is network-owned scratch, valid until the next
// forward pass.
func (q *QuantizedNetwork) Logits(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != q.InDim {
		panic(fmt.Sprintf("nn: quantized network input dim %d, got %d", q.InDim, x.Cols))
	}
	m := x.Rows
	n0 := m * q.InDim
	if cap(q.qin) < n0 {
		q.qin = make([]int8, n0)
	}
	cur := q.qin[:n0]
	q.sat += int64(tensor.QuantizeI8VecTo(cur, x.Data, q.Layers[0].InScale))
	pp := 0
	for _, l := range q.Layers {
		if l.Final {
			out := q.out.Reshape(m, l.W.Cols)
			tensor.I8MatMulBiasFloat(out.Data, cur, m, l.W, l.Mul, l.FBias)
			return out
		}
		need := m * l.W.Cols
		if cap(q.act[pp]) < need {
			q.act[pp] = make([]int8, need)
		}
		nxt := q.act[pp][:need]
		q.sat += int64(tensor.I8MatMulBiasReLU(nxt, cur, m, l.W, l.Mul, l.FBias, l.ReLU))
		cur = nxt
		pp ^= 1
	}
	panic("nn: quantized network has no final layer")
}

// refLogits is the differential oracle: the same walk using the naive
// reference kernels and fresh buffers. It must match Logits
// bit-identically, including the saturation count (pinned by the fuzz
// and differential tests).
func (q *QuantizedNetwork) refLogits(x *tensor.Matrix) (*tensor.Matrix, int64) {
	m := x.Rows
	cur := make([]int8, m*q.InDim)
	sat := int64(tensor.QuantizeI8VecTo(cur, x.Data, q.Layers[0].InScale))
	for _, l := range q.Layers {
		if l.Final {
			out := tensor.New(m, l.W.Cols)
			tensor.I8MatMulBiasFloatRef(out.Data, cur, m, l.W, l.Mul, l.FBias)
			return out, sat
		}
		nxt := make([]int8, m*l.W.Cols)
		sat += int64(tensor.I8MatMulBiasReLURef(nxt, cur, m, l.W, l.Mul, l.FBias, l.ReLU))
		cur = nxt
	}
	panic("nn: quantized network has no final layer")
}

// LogitsOne returns the logit vector for a single example. The returned
// slice aliases network scratch, valid until the next forward pass.
func (q *QuantizedNetwork) LogitsOne(x []float64) []float64 {
	q.oneIn.Rows, q.oneIn.Cols, q.oneIn.Data = 1, len(x), x
	return q.Logits(&q.oneIn).Row(0)
}

// Predict returns the argmax class per example.
func (q *QuantizedNetwork) Predict(x *tensor.Matrix) []int {
	logits := q.Logits(x)
	out := make([]int, logits.Rows)
	for i := range out {
		c, _ := tensor.ArgMax(logits.Row(i))
		out[i] = c
	}
	return out
}

// PredictOne returns the predicted class and its softmax confidence
// (MSP) for a single example — the quantized drift-scoring primitive.
func (q *QuantizedNetwork) PredictOne(x []float64) (class int, msp float64) {
	logits := q.LogitsOne(x)
	probs := tensor.Softmax(logits)
	return tensor.ArgMax(probs)
}

// Accuracy evaluates classification accuracy on (x, labels).
func (q *QuantizedNetwork) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	preds := q.Predict(x)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Saturations returns the cumulative count of requantization clamp
// events (including input-quantization clamps) since construction — the
// counter behind the nazar_quant_saturations metric. A healthy
// calibration keeps this near zero; growth signals activation drift
// outside the calibrated range.
func (q *QuantizedNetwork) Saturations() int64 { return q.sat }

// SizeBytes returns the serving footprint: int8 weight codes plus the
// per-channel float vectors (weight scales and the folded Mul/FBias
// epilogues). The float-side BN state needed for re-folding lives in
// the source network and is not counted here.
func (q *QuantizedNetwork) SizeBytes() int {
	total := 0
	for _, l := range q.Layers {
		total += l.W.SizeBytes() + 8*(len(l.Mul)+len(l.FBias))
	}
	return total
}
