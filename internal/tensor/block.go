package tensor

// Cache/register-blocked matmul kernels.
//
// All three matmul orientations share one design and one inner kernel:
// quadAXPY (quad.go) streams a length-Cols destination row while folding
// in four source rows at a time (a "k-quad"). Relative to the straight
// ikj loop this quarters the number of dst loads/stores per multiply-add
// and keeps the four panel scalars in registers; on amd64 with AVX2 the
// kernel also runs four columns per instruction. MatMul and MatMulBias
// run it over the rows of b and MatMulATB over the shared rows of a and
// b; row-major storage makes those rows contiguous already, so they are
// not packed (a packed-panel variant was measured and lost: the pack
// traffic costs more than it saves at these shapes — see DESIGN.md).
// MatMulABT needs columns of b as rows, so it packs transposed
// four-row panels of b on the stack.
//
// Bit-exactness contract: for every output element the kernels perform
// the same floating-point additions in the same order as the reference
// loops (matMulRange and friends), so results are bit-identical to the
// reference at any worker-pool width. Three rules keep it that way:
//
//  1. Accumulation must stay left-associated against the destination:
//     `d = d + a0*b0 + a1*b1 + ...`, never `d += a0*b0 + a1*b1 + ...`
//     (the latter sums the products first and adds them as one term,
//     which rounds differently).
//  2. Zero source values may only be skipped in groups whose products
//     are all exactly ±0: adding ±0 to a running sum that started at +0
//     can never change its bits for finite inputs, because a sum can
//     only become -0 through operations the accumulation never performs.
//  3. Every multiply is rounded before its add: no fused multiply-add.
//     A SIMD body runs, in each lane, the scalar loop's operations in
//     the scalar order, under the default MXCSR (Go never sets
//     flush-to-zero or denormals-are-zero). The Go loops, reference
//     loops included, write each product as float64(x*y), which the Go
//     spec requires to round, so FMA-capable targets cannot fuse them.
//
// The reference loops are kept both as the small-shape fallback (the
// quad setup overhead dominates tiny products) and as the oracle for the
// differential and fuzz tests.

// blockedMinK and blockedMinN gate the blocked kernels: below these the
// reference loop is at least as fast and far simpler.
const (
	blockedMinK = 8 // inner (reduction) dimension
	blockedMinN = 8 // destination row length
)

// matMulBlocked computes rows [lo,hi) of dst = a·b with 4-wide k-quads,
// bit-identical to matMulRange.
func matMulBlocked(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	kk := a.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		ai := a.Row(i)
		matMulQuadRow(di, ai, b, n, kk)
	}
}

// matMulQuadRow accumulates di += ai·b using k-quads. di must be
// pre-initialized (zero for a plain product).
func matMulQuadRow(di, ai []float64, b *Matrix, n, kk int) {
	k := 0
	for ; k+4 <= kk; k += 4 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue // all four products are ±0; see bit-exactness note
		}
		quadAXPY(di, b.Data[k*n:k*n+n], b.Data[(k+1)*n:(k+1)*n+n],
			b.Data[(k+2)*n:(k+2)*n+n], b.Data[(k+3)*n:(k+3)*n+n], a0, a1, a2, a3)
	}
	for ; k < kk; k++ {
		av := ai[k]
		if av == 0 {
			continue
		}
		bk := b.Data[k*n : k*n+n : k*n+n]
		for j, bv := range bk {
			di[j] += float64(av * bv)
		}
	}
}

// matMulATBBlocked computes dst rows [lo,hi) of dst = aᵀ·b (dst row i is
// column i of a) with 4-wide quads over the shared reduction dimension
// (the rows of a and b), bit-identical to matMulATBRange.
func matMulATBBlocked(dst, a, b *Matrix, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n]
		for j := range di {
			di[j] = 0
		}
	}
	rows := a.Rows
	r := 0
	for ; r+4 <= rows; r += 4 {
		a0, a1, a2, a3 := a.Row(r), a.Row(r+1), a.Row(r+2), a.Row(r+3)
		b0 := b.Data[r*n : r*n+n : r*n+n]
		b1 := b.Data[(r+1)*n : (r+1)*n+n : (r+1)*n+n]
		b2 := b.Data[(r+2)*n : (r+2)*n+n : (r+2)*n+n]
		b3 := b.Data[(r+3)*n : (r+3)*n+n : (r+3)*n+n]
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			quadAXPY(dst.Data[i*n:i*n+n], b0, b1, b2, b3, v0, v1, v2, v3)
		}
	}
	for ; r < rows; r++ {
		ar := a.Row(r)
		br := b.Data[r*n : r*n+n : r*n+n]
		for i := lo; i < hi; i++ {
			av := ar[i]
			if av == 0 {
				continue
			}
			di := dst.Data[i*n : i*n+n : i*n+n]
			for j, bv := range br {
				di[j] += float64(av * bv)
			}
		}
	}
}

// abtPanelCols is the column width of matMulABTBlocked's transposed
// panel: four rows of bᵀ held on the stack, so the kernel needs no
// scratch matrix.
const abtPanelCols = 256

// matMulABTBlocked computes rows [lo,hi) of dst = a·bᵀ with the k-quad
// kernel. For each block of up to abtPanelCols output columns and each
// k-quad it transposes the 4×w panel of b into a stack buffer and folds
// it into every destination row. Each output therefore takes the same
// updates, in the same order and grouping, as matMulQuadRow over a
// materialized bᵀ: bit-identical to matMulABTRange under rule 2.
func matMulABTBlocked(dst, a, b *Matrix, lo, hi int) {
	var panel [4][abtPanelCols]float64
	n, kk := b.Rows, a.Cols
	for i := lo; i < hi; i++ {
		clear(dst.Data[i*n : i*n+n])
	}
	for j0 := 0; j0 < n; j0 += abtPanelCols {
		w := min(abtPanelCols, n-j0)
		p0, p1, p2, p3 := panel[0][:w], panel[1][:w], panel[2][:w], panel[3][:w]
		k := 0
		for ; k+4 <= kk; k += 4 {
			for jj := range p0 {
				bj := b.Data[(j0+jj)*kk+k : (j0+jj)*kk+k+4]
				p0[jj], p1[jj], p2[jj], p3[jj] = bj[0], bj[1], bj[2], bj[3]
			}
			for i := lo; i < hi; i++ {
				ai := a.Data[i*kk+k : i*kk+k+4]
				if ai[0] == 0 && ai[1] == 0 && ai[2] == 0 && ai[3] == 0 {
					continue // all four products are ±0; see bit-exactness note
				}
				quadAXPY(dst.Data[i*n+j0:i*n+j0+w], p0, p1, p2, p3, ai[0], ai[1], ai[2], ai[3])
			}
		}
		for ; k < kk; k++ {
			for jj := range p0 {
				p0[jj] = b.Data[(j0+jj)*kk+k]
			}
			for i := lo; i < hi; i++ {
				av := a.Data[i*kk+k]
				if av == 0 {
					continue
				}
				di := dst.Data[i*n+j0 : i*n+j0+w]
				for jj, bv := range p0 {
					di[jj] += float64(av * bv)
				}
			}
		}
	}
}

// matMulBiasRange computes rows [lo,hi) of dst = a·b + bias, optionally
// applying ReLU in the same pass. mask, when non-nil, receives the ReLU
// activation mask (mask[i*n+j] reports whether the pre-activation was
// positive). The accumulation is the plain MatMul kernel; bias/ReLU run
// as a row epilogue, so dst is bit-identical to MatMul + AddRowVector
// (+ ReLU).
func matMulBiasRange(dst, a, b *Matrix, bias []float64, relu bool, mask []bool, lo, hi int) {
	n := b.Cols
	kk := a.Cols
	blocked := kk >= blockedMinK && n >= blockedMinN
	for i := lo; i < hi; i++ {
		di := dst.Data[i*n : i*n+n : i*n+n]
		for j := range di {
			di[j] = 0
		}
		ai := a.Row(i)
		if blocked {
			matMulQuadRow(di, ai, b, n, kk)
		} else {
			for k, av := range ai {
				if av == 0 {
					continue
				}
				bk := b.Data[k*n : k*n+n : k*n+n]
				for j, bv := range bk {
					di[j] += float64(av * bv)
				}
			}
		}
		switch {
		case relu && mask != nil:
			mi := mask[i*n : i*n+n : i*n+n]
			for j, bv := range bias {
				v := di[j] + bv
				if v > 0 {
					di[j] = v
					mi[j] = true
				} else {
					di[j] = 0
					mi[j] = false
				}
			}
		case relu:
			for j, bv := range bias {
				if v := di[j] + bv; v > 0 {
					di[j] = v
				} else {
					di[j] = 0
				}
			}
		default:
			for j, bv := range bias {
				di[j] += bv
			}
		}
	}
}
