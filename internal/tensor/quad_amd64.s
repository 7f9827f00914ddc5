#include "textflag.h"

// func quadAXPYAVX2(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
//
// d[j] = (((d[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
//
// Four float64 lanes per step, then a scalar tail. Every lane performs
// separately rounded multiplies and adds in the order of the Go loop;
// no FMA, so the result is bit-identical to quadAXPYGeneric.
TEXT ·quadAXPYAVX2(SB), NOSPLIT, $0-152
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   tail

loop4:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop4

tail:
	CMPQ AX, CX
	JGE  done

loop1:
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
