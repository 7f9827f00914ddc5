package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// quadSpecials are the IEEE edge values the AVX2 and portable bodies
// must agree on: signed zeros, subnormals, the largest finite values
// (whose products overflow), infinities and NaN.
var quadSpecials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.NaN(),
}

// fillQuad fills v with normal values, with a special value at about one
// element in four when specials is set.
func fillQuad(v []float64, rng *rand.Rand, specials bool) {
	for i := range v {
		if specials && rng.IntN(4) == 0 {
			v[i] = quadSpecials[rng.IntN(len(quadSpecials))]
			continue
		}
		v[i] = rng.NormFloat64()
	}
}

// sameQuadBits compares bit patterns, except that any NaN equals any
// NaN: which operand's payload a NaN result carries depends on operand
// order within a commutative multiply or add, which neither the Go spec
// nor the contract fixes.
func sameQuadBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// TestQuadAXPYAVX2MatchesPortable runs the two quadAXPY bodies directly
// against each other over every tail length from 0 to 67, on sub-slices
// starting at every offset modulo 4 (so neither d nor the b rows are
// 32-byte aligned), with normal and special inputs.
func TestQuadAXPYAVX2MatchesPortable(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2: quadAXPY runs the portable body only")
	}
	rng := rand.New(rand.NewPCG(0xA7C2, 3))
	const maxN, pad = 67, 3
	var bufs [5][maxN + pad]float64
	for n := 0; n <= maxN; n++ {
		for off := 0; off <= pad; off++ {
			for _, specials := range []bool{false, true} {
				for i := range bufs {
					fillQuad(bufs[i][:], rng, specials)
				}
				var as [4]float64
				fillQuad(as[:], rng, specials)
				d := bufs[0][off : off+n]
				b0, b1, b2, b3 := bufs[1][off:off+n], bufs[2][off:], bufs[3][pad-off:], bufs[4][:]
				want := append([]float64(nil), d...)
				quadAXPYGeneric(want, b0, b1, b2, b3, as[0], as[1], as[2], as[3])
				got := append([]float64(nil), d...)
				quadAXPYAVX2(got, b0, b1, b2, b3, as[0], as[1], as[2], as[3])
				for j := range want {
					if !sameQuadBits(got[j], want[j]) {
						t.Fatalf("n=%d off=%d specials=%v j=%d: avx2 %v (%#x) portable %v (%#x)",
							n, off, specials, j, got[j], math.Float64bits(got[j]),
							want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestQuadAXPYLeavesTailUntouched checks that the assembly writes only
// d[:len(d)], even when the backing array continues past it.
func TestQuadAXPYLeavesTailUntouched(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2")
	}
	for n := 0; n <= 9; n++ {
		buf := make([]float64, n+8)
		for i := range buf {
			buf[i] = float64(i + 1)
		}
		ones := make([]float64, n+8)
		for i := range ones {
			ones[i] = 1
		}
		quadAXPYAVX2(buf[:n], ones, ones, ones, ones, 1, 1, 1, 1)
		for i := n; i < len(buf); i++ {
			if buf[i] != float64(i+1) {
				t.Fatalf("n=%d: element %d past the end changed to %v", n, i, buf[i])
			}
		}
	}
}

// BenchmarkQuadAXPY compares the AVX2 and portable bodies at the row
// lengths the model shapes produce.
func BenchmarkQuadAXPY(b *testing.B) {
	rng := rand.New(rand.NewPCG(0xBE7C4, 2))
	for _, n := range []int{24, 96, 256} {
		var rows [5][]float64
		for i := range rows {
			rows[i] = make([]float64, n)
			fillQuad(rows[i], rng, false)
		}
		bodies := []struct {
			name string
			f    func(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
		}{{"avx2", quadAXPYAVX2}, {"portable", quadAXPYGeneric}}
		for _, body := range bodies {
			b.Run(fmt.Sprintf("%s/%d", body.name, n), func(b *testing.B) {
				if body.name == "avx2" && !hasAVX2 {
					b.Skip("CPU without AVX2")
				}
				b.SetBytes(int64(8 * 5 * n))
				for i := 0; i < b.N; i++ {
					body.f(rows[0], rows[1], rows[2], rows[3], rows[4], 0.5, -0.25, 0.125, 1e-3)
				}
			})
		}
	}
}
