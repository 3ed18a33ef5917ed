#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

// func dot8x4(row []float64, xs *[8][]float64, acc *[32]float64)
//
// Y0..Y7 hold lanes 0..7's partial sums (s0, s1, s2, s3), Y8 the row's
// current four columns, Y9 a product. Each product is rounded by VMULPD
// before VADDPD adds it, matching Go's unfused scalar arithmetic.
TEXT ·dot8x4(SB), NOSPLIT, $0-40
	MOVQ row_base+0(FP), SI
	MOVQ row_len+8(FP), CX
	MOVQ xs+24(FP), DI
	MOVQ acc+32(FP), DX

	// Lane base pointers: each []float64 of *xs is a 24-byte slice
	// header whose first word is the data pointer.
	MOVQ 0(DI), R8
	MOVQ 24(DI), R9
	MOVQ 48(DI), R10
	MOVQ 72(DI), R11
	MOVQ 96(DI), R12
	MOVQ 120(DI), R13
	MOVQ 144(DI), BX
	MOVQ 168(DI), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	// CX = byte length of the whole 4-column blocks; AX = byte offset.
	ANDQ $-4, CX
	SHLQ $3, CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  done

loop:
	VMOVUPD (SI)(AX*1), Y8
	VMULPD  (R8)(AX*1), Y8, Y9
	VADDPD  Y9, Y0, Y0
	VMULPD  (R9)(AX*1), Y8, Y9
	VADDPD  Y9, Y1, Y1
	VMULPD  (R10)(AX*1), Y8, Y9
	VADDPD  Y9, Y2, Y2
	VMULPD  (R11)(AX*1), Y8, Y9
	VADDPD  Y9, Y3, Y3
	VMULPD  (R12)(AX*1), Y8, Y9
	VADDPD  Y9, Y4, Y4
	VMULPD  (R13)(AX*1), Y8, Y9
	VADDPD  Y9, Y5, Y5
	VMULPD  (BX)(AX*1), Y8, Y9
	VADDPD  Y9, Y6, Y6
	VMULPD  (DI)(AX*1), Y8, Y9
	VADDPD  Y9, Y7, Y7
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     loop

done:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET
