package tensor

// quadAXPYGeneric is the portable body of quadAXPY:
//
//	d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
//
// left-associated, for j in [0, len(d)). Every b slice must hold at
// least len(d) elements. The explicit float64 conversions keep
// FMA-capable targets from fusing a product into its add (rule 3 in
// block.go).
func quadAXPYGeneric(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	for j, v := range b0 {
		d[j] = d[j] + float64(a0*v) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
	}
}
