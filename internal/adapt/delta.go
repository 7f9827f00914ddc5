package adapt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"nazar/internal/nn"
)

// BNDelta is a compressed BN version for the wire: instead of full
// float64 BN state, it carries int16-quantized *differences* against a
// reference snapshot the device already holds (its base model's BN
// state). §3.4 adapts only BN layers because "each adaptation leads to a
// whole new version of the model weights"; deltas push the same idea one
// step further — an adaptation moves BN state only slightly, so the
// quantized diff is ~4× smaller again than the full snapshot.
//
// A SHA-256 checksum over the payload lets devices verify integrity
// before installing.
type BNDelta struct {
	Layers   []BNLayerDelta
	Checksum [sha256.Size]byte
}

// BNLayerDelta carries one layer's quantized differences with per-tensor
// scales (value ≈ ref + scale·q).
type BNLayerDelta struct {
	GammaQ, BetaQ []int16
	MeanQ, VarQ   []int16
	GammaScale    float64
	BetaScale     float64
	MeanScale     float64
	VarScale      float64
}

// quantizeDiff returns int16 codes and the scale for target-ref.
func quantizeDiff(ref, target []float64) ([]int16, float64) {
	q := make([]int16, len(ref))
	var maxAbs float64
	for i := range ref {
		if d := math.Abs(target[i] - ref[i]); d > maxAbs {
			maxAbs = d
		}
	}
	if maxAbs == 0 {
		return q, 0
	}
	scale := maxAbs / 32767
	for i := range ref {
		q[i] = int16(math.Round((target[i] - ref[i]) / scale))
	}
	return q, scale
}

func dequantize(ref []float64, q []int16, scale float64) []float64 {
	out := make([]float64, len(ref))
	for i := range ref {
		out[i] = ref[i] + float64(scale*float64(q[i]))
	}
	return out
}

// DiffBN computes the quantized delta that transforms ref into
// (approximately) target. The two snapshots must have identical shapes.
func DiffBN(ref, target *nn.BNSnapshot) (*BNDelta, error) {
	if len(ref.Layers) != len(target.Layers) {
		return nil, fmt.Errorf("adapt: delta layer count %d != %d", len(target.Layers), len(ref.Layers))
	}
	d := &BNDelta{Layers: make([]BNLayerDelta, len(ref.Layers))}
	for i := range ref.Layers {
		r, t := ref.Layers[i], target.Layers[i]
		if len(r.Gamma) != len(t.Gamma) {
			return nil, fmt.Errorf("adapt: delta layer %d dim %d != %d", i, len(t.Gamma), len(r.Gamma))
		}
		var ld BNLayerDelta
		ld.GammaQ, ld.GammaScale = quantizeDiff(r.Gamma, t.Gamma)
		ld.BetaQ, ld.BetaScale = quantizeDiff(r.Beta, t.Beta)
		ld.MeanQ, ld.MeanScale = quantizeDiff(r.RunMean, t.RunMean)
		ld.VarQ, ld.VarScale = quantizeDiff(r.RunVar, t.RunVar)
		d.Layers[i] = ld
	}
	d.Checksum = d.payloadChecksum()
	return d, nil
}

// Apply reconstructs the target snapshot from the reference, verifying
// the checksum first.
func (d *BNDelta) Apply(ref *nn.BNSnapshot) (*nn.BNSnapshot, error) {
	if d.payloadChecksum() != d.Checksum {
		return nil, fmt.Errorf("adapt: delta checksum mismatch (corrupted or tampered)")
	}
	if len(ref.Layers) != len(d.Layers) {
		return nil, fmt.Errorf("adapt: delta expects %d BN layers, reference has %d", len(d.Layers), len(ref.Layers))
	}
	out := &nn.BNSnapshot{Layers: make([]nn.BNLayerState, len(ref.Layers))}
	for i := range d.Layers {
		r, ld := ref.Layers[i], d.Layers[i]
		if len(r.Gamma) != len(ld.GammaQ) {
			return nil, fmt.Errorf("adapt: delta layer %d dim %d, reference %d", i, len(ld.GammaQ), len(r.Gamma))
		}
		out.Layers[i] = nn.BNLayerState{
			Gamma:   dequantize(r.Gamma, ld.GammaQ, ld.GammaScale),
			Beta:    dequantize(r.Beta, ld.BetaQ, ld.BetaScale),
			RunMean: dequantize(r.RunMean, ld.MeanQ, ld.MeanScale),
			RunVar:  dequantize(r.RunVar, ld.VarQ, ld.VarScale),
		}
		// Running variances must stay positive regardless of
		// quantization rounding.
		for j, v := range out.Layers[i].RunVar {
			if v < 1e-12 {
				out.Layers[i].RunVar[j] = 1e-12
			}
		}
	}
	return out, nil
}

// payloadChecksum hashes the quantized payload (codes and scales).
func (d *BNDelta) payloadChecksum() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	writeI16 := func(q []int16) {
		for _, v := range q {
			binary.LittleEndian.PutUint16(buf[:2], uint16(v))
			h.Write(buf[:2])
		}
	}
	writeF := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, l := range d.Layers {
		writeI16(l.GammaQ)
		writeI16(l.BetaQ)
		writeI16(l.MeanQ)
		writeI16(l.VarQ)
		writeF(l.GammaScale)
		writeF(l.BetaScale)
		writeF(l.MeanScale)
		writeF(l.VarScale)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// SizeBytes returns the wire payload size (2 bytes per code + scales).
func (d *BNDelta) SizeBytes() int {
	total := sha256.Size
	for _, l := range d.Layers {
		total += 2*(len(l.GammaQ)+len(l.BetaQ)+len(l.MeanQ)+len(l.VarQ)) + 4*8
	}
	return total
}

// Encode serializes the delta.
func (d *BNDelta) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return nil, fmt.Errorf("adapt: encode delta: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeBNDelta parses a delta produced by Encode.
func DecodeBNDelta(data []byte) (*BNDelta, error) {
	var d BNDelta
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&d); err != nil {
		return nil, fmt.Errorf("adapt: decode delta: %w", err)
	}
	return &d, nil
}
