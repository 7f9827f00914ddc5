//go:build !amd64

package tensor

// quadAXPY computes d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] +
// a3*b3[j], left-associated, for j in [0, len(d)). Targets without an
// assembly body run the portable loop.
func quadAXPY(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	quadAXPYGeneric(d, b0, b1, b2, b3, a0, a1, a2, a3)
}
