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

// func csrGather4(ptr *int32, rows int, idx *int32, w *float64, x *float64, ys *[4]*float64, b *float64)
//
// Sums rows consecutive CSR rows for four lanes at once. Row i owns
// slots ptr[i]..ptr[i+1] of idx and w (a multiple of four apart), slot
// s reads column idx[s], and x holds the four lanes' sources
// interleaved: x[4c+k] is lane k's value at column c. Y0..Y3 hold
// accumulators 0..3 of the four lanes; slot 4m+a
// broadcasts its weight, multiplies the four lanes' values with VMULPD
// and adds the product into Ya with VADDPD (never FMA), so every
// accumulator rounds exactly as Dot's. The reduction ((Y0+Y1)+Y2)+Y3,
// plus b[i] when b is non-nil, is each lane's Dot order; lane k's sum
// is stored to ys[k][i].
TEXT ·csrGather4(SB), NOSPLIT, $0-56
	MOVQ ptr+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ idx+16(FP), DI
	MOVQ w+24(FP), R8
	MOVQ x+32(FP), R10
	MOVQ ys+40(FP), DX
	MOVQ 0(DX), R11
	MOVQ 8(DX), R12
	MOVQ 16(DX), R13
	MOVQ 24(DX), R14
	MOVQ b+48(FP), DX
	TESTQ CX, CX
	JZ    gdone

grow:
	MOVLQSX 0(SI), AX // first slot
	MOVLQSX 4(SI), BX // end slot
	ADDQ    $4, SI
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	CMPQ    AX, BX
	JGE     greduce

gslot:
	MOVLQSX      0(DI)(AX*4), R9
	SHLQ         $5, R9
	VBROADCASTSD 0(R8)(AX*8), Y4
	VMULPD       (R10)(R9*1), Y4, Y4
	VADDPD       Y4, Y0, Y0
	MOVLQSX      4(DI)(AX*4), R9
	SHLQ         $5, R9
	VBROADCASTSD 8(R8)(AX*8), Y5
	VMULPD       (R10)(R9*1), Y5, Y5
	VADDPD       Y5, Y1, Y1
	MOVLQSX      8(DI)(AX*4), R9
	SHLQ         $5, R9
	VBROADCASTSD 16(R8)(AX*8), Y6
	VMULPD       (R10)(R9*1), Y6, Y6
	VADDPD       Y6, Y2, Y2
	MOVLQSX      12(DI)(AX*4), R9
	SHLQ         $5, R9
	VBROADCASTSD 24(R8)(AX*8), Y7
	VMULPD       (R10)(R9*1), Y7, Y7
	VADDPD       Y7, Y3, Y3
	ADDQ         $4, AX
	CMPQ         AX, BX
	JLT          gslot

greduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	TESTQ  DX, DX
	JZ     gstore
	VBROADCASTSD 0(DX), Y4
	VADDPD Y4, Y0, Y0
	ADDQ   $8, DX

gstore:
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X0, 0(R11)
	VMOVHPD      X0, 0(R12)
	VMOVSD       X1, 0(R13)
	VMOVHPD      X1, 0(R14)
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $8, R14
	DECQ         CX
	JNZ          grow

gdone:
	VZEROUPPER
	RET
