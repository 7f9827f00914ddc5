package nn

import (
	"math"

	"nazar/internal/tensor"
)

// CrossEntropy computes the mean cross-entropy loss of logits against
// integer labels and the gradient dL/dlogits.
func CrossEntropy(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	return CrossEntropyInto(tensor.New(logits.Rows, logits.Cols), logits, labels)
}

// CrossEntropyInto is CrossEntropy writing dL/dlogits into dst (reshaped
// to match logits) — the allocation-free variant for reused gradient
// scratch.
func CrossEntropyInto(dst *tensor.Matrix, logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	n := logits.Rows
	grad := dst.Reshape(n, logits.Cols)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		lse := tensor.LogSumExp(row)
		y := labels[i]
		loss += lse - row[y]
		g := grad.Row(i)
		for j, v := range row {
			g[j] = math.Exp(v-lse) / float64(n)
		}
		g[y] -= 1 / float64(n)
	}
	return loss / float64(n), grad
}

// Entropy computes the mean Shannon entropy of the softmax of each logit
// row (the TENT objective, Eq. 2 of the paper) and dL/dlogits.
//
// For a single row with probabilities p and entropy H = −Σ p log p, the
// gradient is dH/dz_k = −p_k (log p_k + H).
func Entropy(logits *tensor.Matrix) (float64, *tensor.Matrix) {
	return EntropyInto(tensor.New(logits.Rows, logits.Cols), logits)
}

// EntropyInto is Entropy writing dL/dlogits into dst (reshaped to match
// logits). The softmax probabilities are materialized directly in the
// gradient rows and transformed in place, so the pass needs no scratch
// at all.
func EntropyInto(dst *tensor.Matrix, logits *tensor.Matrix) (float64, *tensor.Matrix) {
	n := logits.Rows
	grad := dst.Reshape(n, logits.Cols)
	var total float64
	for i := 0; i < n; i++ {
		g := grad.Row(i)
		p := tensor.SoftmaxTo(g, logits.Row(i))
		var h float64
		for _, pc := range p {
			if pc > 0 {
				h -= float64(pc * math.Log(pc))
			}
		}
		total += h
		for k, pk := range p {
			if pk > 0 {
				g[k] = -pk * (math.Log(pk) + h) / float64(n)
			} else {
				g[k] = 0
			}
		}
	}
	return total / float64(n), grad
}

// MarginalEntropy computes the MEMO objective (Eq. 3 of the paper): the
// entropy of the probability vector averaged over B augmented copies of
// one input, plus dL/dlogits for all copies.
//
// With p̄ = (1/B)Σ p_i and L = H(p̄), the gradient is
// dL/dz_{i,k} = (p_{i,k}/B)(Σ_c p_{i,c} log p̄_c − log p̄_k).
func MarginalEntropy(logits *tensor.Matrix) (float64, *tensor.Matrix) {
	return MarginalEntropyInto(tensor.New(logits.Rows, logits.Cols), logits)
}

// MarginalEntropyInto is MarginalEntropy writing dL/dlogits into dst
// (reshaped to match logits). Per-copy probabilities live in the
// gradient rows and are transformed in place; the only scratch (the
// averaged distribution and its log) comes from the tensor workspace
// arena, so steady-state calls do not allocate.
func MarginalEntropyInto(dst *tensor.Matrix, logits *tensor.Matrix) (float64, *tensor.Matrix) {
	b := logits.Rows
	c := logits.Cols
	grad := dst.Reshape(b, c)
	for i := 0; i < b; i++ {
		tensor.SoftmaxTo(grad.Row(i), logits.Row(i))
	}
	scratch := tensor.GetMatrix(2, c)
	defer tensor.PutMatrix(scratch)
	avg, logAvg := scratch.Row(0), scratch.Row(1)
	for i := 0; i < b; i++ {
		for j, p := range grad.Row(i) {
			avg[j] += p / float64(b)
		}
	}
	var loss float64
	for j, p := range avg {
		if p > 0 {
			logAvg[j] = math.Log(p)
			loss -= float64(p * logAvg[j])
		} else {
			logAvg[j] = math.Inf(-1)
		}
	}
	for i := 0; i < b; i++ {
		g := grad.Row(i)
		var inner float64
		for j, p := range g {
			if p > 0 {
				inner += float64(p * logAvg[j])
			}
		}
		for k, pk := range g {
			if pk > 0 {
				g[k] = pk / float64(b) * (inner - logAvg[k])
			} else {
				g[k] = 0
			}
		}
	}
	return loss, grad
}

// GroupedMarginalEntropy applies MarginalEntropy to consecutive groups of
// groupSize rows (the augmented copies of one input each) and returns the
// mean loss over groups with the matching full-batch gradient. This is
// the "MEMO with TENT-style batching" setup of §3.4: normalization
// statistics come from the whole augmented batch while the objective
// stays per-input marginal entropy.
func GroupedMarginalEntropy(logits *tensor.Matrix, groupSize int) (float64, *tensor.Matrix) {
	return GroupedMarginalEntropyInto(tensor.New(logits.Rows, logits.Cols), logits, groupSize)
}

// GroupedMarginalEntropyInto is GroupedMarginalEntropy writing the
// full-batch gradient into dst (reshaped to match logits).
func GroupedMarginalEntropyInto(dst *tensor.Matrix, logits *tensor.Matrix, groupSize int) (float64, *tensor.Matrix) {
	if groupSize <= 0 || logits.Rows%groupSize != 0 {
		panic("nn: GroupedMarginalEntropy rows must be a multiple of groupSize")
	}
	groups := logits.Rows / groupSize
	grad := dst.Reshape(logits.Rows, logits.Cols)
	var total float64
	var sub, gsub tensor.Matrix
	for g := 0; g < groups; g++ {
		span := logits.Data[g*groupSize*logits.Cols : (g+1)*groupSize*logits.Cols]
		sub.Rows, sub.Cols, sub.Data = groupSize, logits.Cols, span
		gspan := grad.Data[g*groupSize*logits.Cols : (g+1)*groupSize*logits.Cols]
		gsub.Rows, gsub.Cols, gsub.Data = groupSize, logits.Cols, gspan
		loss, _ := MarginalEntropyInto(&gsub, &sub)
		total += loss
		for i, v := range gspan {
			gspan[i] = v / float64(groups)
		}
	}
	return total / float64(groups), grad
}

// EntropyOf returns the Shannon entropy of a probability vector.
func EntropyOf(p []float64) float64 {
	var h float64
	for _, pc := range p {
		if pc > 0 {
			h -= float64(pc * math.Log(pc))
		}
	}
	return h
}
