package tensor

// hasAVX2 reports whether the CPU and OS support 256-bit AVX2
// execution. It is decided once at package init and is the only thing
// that picks the quadAXPY body.
var hasAVX2 = detectAVX2()

// detectAVX2 checks CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE,
// and XCR0 for OS-enabled XMM and YMM state.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// quadAXPY computes d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] +
// a3*b3[j], left-associated, for j in [0, len(d)): the inner loop of
// every blocked float matmul. Every b slice must hold at least len(d)
// elements. The AVX2 body runs the same IEEE operations in the same
// order on four lanes at a time, so both bodies give identical bits.
func quadAXPY(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if !hasAVX2 {
		quadAXPYGeneric(d, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	// The reslices bound-check the b slices before the assembly reads
	// len(d) elements from each.
	quadAXPYAVX2(d, b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)], a0, a1, a2, a3)
}

// quadAXPYAVX2 is quadAXPY in AVX2 assembly (VMULPD/VADDPD, no FMA).
//
//go:noescape
func quadAXPYAVX2(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
