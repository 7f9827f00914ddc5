package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// kernelShapes are the differential-test shapes: degenerate vectors,
// shapes straddling the blocked-kernel gates, sizes not divisible by
// the 4-wide quads, and large parallel-path shapes.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 1},
	{1, 64, 1},
	{17, 1, 9},
	{1, 33, 129}, // 1×N row through the blocked path
	{129, 33, 1}, // N×1 column: dst rows shorter than blockedMinN
	{3, 5, 7},
	{7, 8, 8}, // exactly at the blocked gates
	{8, 7, 9}, // k below the gate
	{9, 9, 9},
	{13, 21, 34},
	{31, 17, 129},
	{64, 64, 64},
	{70, 60, 50},
	{65, 129, 67}, // odd sizes above the parallel threshold
	{128, 96, 33},
}

// fillKernelTest populates m with a mix of normal values and exact
// zeros so the zero-skip fast paths are exercised.
func fillKernelTest(m *Matrix, rng *rand.Rand) {
	for i := range m.Data {
		switch rng.IntN(8) {
		case 0:
			m.Data[i] = 0
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

// matricesBitIdentical asserts exact (bit-level) equality — the
// contract between the blocked kernels and the reference loops.
func matricesBitIdentical(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d != %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d: got %v (%#x) want %v (%#x)",
				ctx, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// atWidths runs f at pool width 1 (fully sequential) and at a wide
// setting, restoring the default afterwards.
func atWidths(t *testing.T, f func(t *testing.T, workers int)) {
	t.Helper()
	for _, w := range []int{1, 8} {
		SetMaxWorkers(w)
		f(t, w)
	}
	SetMaxWorkers(0)
}

// TestMatMulKernelsMatchReferenceBitIdentical is the differential suite
// of the tentpole: every optimized orientation must agree bit-for-bit
// with its reference loop on every shape, sequentially and under the
// parallel fan-out.
func TestMatMulKernelsMatchReferenceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xB10C, 1))
	for _, sh := range kernelShapes {
		a := New(sh.m, sh.k)
		b := New(sh.k, sh.n)
		bt := New(sh.n, sh.k) // for ABT: dst = a·btᵀ
		at := New(sh.k, sh.m) // for ATB: dst = atᵀ·b2
		b2 := New(sh.k, sh.n) // shares at's row count
		fillKernelTest(a, rng)
		fillKernelTest(b, rng)
		fillKernelTest(bt, rng)
		fillKernelTest(at, rng)
		fillKernelTest(b2, rng)
		bias := make([]float64, sh.n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}

		atWidths(t, func(t *testing.T, w int) {
			ctx := fmt.Sprintf("%dx%dx%d@w%d", sh.m, sh.k, sh.n, w)

			want := New(sh.m, sh.n)
			MatMulRef(want, a, b)
			got := New(sh.m, sh.n)
			MatMul(got, a, b)
			matricesBitIdentical(t, "MatMul "+ctx, got, want)

			// MatMulBias == MatMul + AddRowVector, bit-identical.
			want.AddRowVector(bias)
			MatMulBias(got, a, b, bias)
			matricesBitIdentical(t, "MatMulBias "+ctx, got, want)

			// MatMulBiasReLU == clamp of the above, with the matching
			// mask.
			mask := make([]bool, sh.m*sh.n)
			MatMulBiasReLU(got, a, b, bias, mask)
			for i := range want.Data {
				pos := want.Data[i] > 0
				if pos != mask[i] {
					t.Fatalf("MatMulBiasReLU %s: mask[%d]=%v want %v", ctx, i, mask[i], pos)
				}
				r := want.Data[i]
				if !pos {
					r = 0
				}
				if math.Float64bits(got.Data[i]) != math.Float64bits(r) {
					t.Fatalf("MatMulBiasReLU %s: element %d: got %v want %v", ctx, i, got.Data[i], r)
				}
			}

			wantATB := New(sh.m, sh.n)
			MatMulATBRef(wantATB, at, b2)
			gotATB := New(sh.m, sh.n)
			MatMulATB(gotATB, at, b2)
			matricesBitIdentical(t, "MatMulATB "+ctx, gotATB, wantATB)

			wantABT := New(sh.m, sh.n)
			MatMulABTRef(wantABT, a, bt)
			gotABT := New(sh.m, sh.n)
			MatMulABT(gotABT, a, bt)
			matricesBitIdentical(t, "MatMulABT "+ctx, gotABT, wantABT)
		})
	}
}

// TestMatMulATBParallelMatchesSequential pins the satellite fix: the
// weight-gradient orientation now fans out over output rows above the
// work threshold and must produce identical bits at any pool width.
func TestMatMulATBParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a := New(128, 96) // 128*96*64 comfortably above parallelThreshold
	b := New(128, 64)
	fillKernelTest(a, rng)
	fillKernelTest(b, rng)

	SetMaxWorkers(1)
	seq := New(96, 64)
	MatMulATB(seq, a, b)
	SetMaxWorkers(8)
	par := New(96, 64)
	MatMulATB(par, a, b)
	SetMaxWorkers(0)
	matricesBitIdentical(t, "ATB seq vs par", par, seq)

	if stats := ReadPoolStats(); stats.ParallelCalls == 0 {
		t.Fatal("expected the wide run to take the parallel path")
	}
}

// TestMatMulABTPanelRouteBitIdentical pins the input-gradient
// orientation's route through transposed panels of b and the k-quad
// kernel: at the TENT step's shapes, across panel-width boundaries and
// k tails, with whole zero k-quads in a (the ReLU-masked gradients that
// hit the skip), the result matches MatMulABTRef bit for bit at pool
// widths 1 and 8, and b is left untouched.
func TestMatMulABTPanelRouteBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xAB7, 2))
	for _, sh := range []struct{ m, k, n int }{
		{64, 96, 96}, {64, 24, 96}, {64, 96, 24}, {33, 13, 9},
		{5, 13, abtPanelCols}, {9, 10, abtPanelCols + 1}, {70, 17, 2*abtPanelCols + 45},
	} {
		a := New(sh.m, sh.k)
		b := New(sh.n, sh.k)
		fillKernelTest(a, rng)
		fillKernelTest(b, rng)
		for i := 0; i < sh.m; i += 3 {
			for k := 4; k+4 <= sh.k; k += 8 {
				copy(a.Row(i)[k:k+4], []float64{0, math.Copysign(0, -1), 0, 0})
			}
		}
		bBefore := b.Clone()
		want := New(sh.m, sh.n)
		MatMulABTRef(want, a, b)
		atWidths(t, func(t *testing.T, w int) {
			got := New(sh.m, sh.n)
			got.Fill(math.NaN()) // the kernel must overwrite every element
			MatMulABT(got, a, b)
			matricesBitIdentical(t, fmt.Sprintf("MatMulABT %dx%dx%d@w%d", sh.m, sh.k, sh.n, w), got, want)
		})
		matricesBitIdentical(t, "MatMulABT input b", b, bBefore)
	}
}

// FuzzMatMulKernels cross-checks the blocked kernels against the
// reference loops on fuzzer-chosen shapes and data, including exact
// zeros (the skip fast paths) at both pool widths.
func FuzzMatMulKernels(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(7))
	f.Add(uint64(2), uint8(1), uint8(40), uint8(1))
	f.Add(uint64(3), uint8(16), uint8(16), uint8(16))
	f.Add(uint64(4), uint8(65), uint8(9), uint8(33))
	f.Fuzz(func(t *testing.T, seed uint64, mr, kr, nr uint8) {
		m, k, n := int(mr%64)+1, int(kr%64)+1, int(nr%64)+1
		rng := rand.New(rand.NewPCG(seed, 99))
		a := New(m, k)
		b := New(k, n)
		bt := New(n, k)
		at := New(k, m)
		fillKernelTest(a, rng)
		fillKernelTest(b, rng)
		fillKernelTest(bt, rng)
		fillKernelTest(at, rng)

		for _, w := range []int{1, 8} {
			SetMaxWorkers(w)
			want := New(m, n)
			MatMulRef(want, a, b)
			got := New(m, n)
			MatMul(got, a, b)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("MatMul %dx%dx%d@w%d diverges at %d: %v vs %v", m, k, n, w, i, got.Data[i], want.Data[i])
				}
			}
			wantATB := New(m, n)
			MatMulATBRef(wantATB, at, b)
			gotATB := New(m, n)
			MatMulATB(gotATB, at, b)
			for i := range wantATB.Data {
				if math.Float64bits(gotATB.Data[i]) != math.Float64bits(wantATB.Data[i]) {
					t.Fatalf("MatMulATB %dx%dx%d@w%d diverges at %d", m, k, n, w, i)
				}
			}
			wantABT := New(m, n)
			MatMulABTRef(wantABT, a, bt)
			gotABT := New(m, n)
			MatMulABT(gotABT, a, bt)
			for i := range wantABT.Data {
				if math.Float64bits(gotABT.Data[i]) != math.Float64bits(wantABT.Data[i]) {
					t.Fatalf("MatMulABT %dx%dx%d@w%d diverges at %d", m, k, n, w, i)
				}
			}
		}
		SetMaxWorkers(0)
	})
}

// TestMatMulSteadyStateAllocs: the kernels themselves must not allocate
// when the destination is pre-shaped (width 1: the parallel fan-out
// necessarily allocates its goroutine bookkeeping).
func TestMatMulSteadyStateAllocs(t *testing.T) {
	SetMaxWorkers(1)
	defer SetMaxWorkers(0)
	rng := rand.New(rand.NewPCG(5, 5))
	a := New(64, 48)
	b := New(48, 32)
	bt := New(32, 48)
	dy := New(64, 32) // pairs with a for the ATB (weight-gradient) shape
	fillKernelTest(a, rng)
	fillKernelTest(b, rng)
	fillKernelTest(bt, rng)
	fillKernelTest(dy, rng)
	dst := New(64, 32)
	atb := New(48, 32)
	bias := make([]float64, 32)
	mask := make([]bool, 64*32)

	if n := testing.AllocsPerRun(20, func() {
		MatMul(dst, a, b)
		MatMulBias(dst, a, b, bias)
		MatMulBiasReLU(dst, a, b, bias, mask)
		MatMulATB(atb, a, dy)
		MatMulABT(dst, a, bt)
	}); n != 0 {
		t.Fatalf("matmul kernels allocate %v per run, want 0", n)
	}
}
