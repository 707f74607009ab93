#include "textflag.h"
#include "funcdata.h"

// The n-gram step's VPSHUFB patterns, the same in both 128-bit lanes.
// A lane holds 16 codes from c[i-4] on, where i is its first n-gram:
// gramBytes puts c[i+j-3], c[i+j-2], c[i+j-1] and c[i+j] into dword j,
// and fifthByte c[i+j-4] alone (bit 7 zeroes the other bytes).
DATA gramBytes<>+0x00(SB)/8, $0x0504030204030201
DATA gramBytes<>+0x08(SB)/8, $0x0706050406050403
DATA gramBytes<>+0x10(SB)/8, $0x0504030204030201
DATA gramBytes<>+0x18(SB)/8, $0x0706050406050403
GLOBL gramBytes<>(SB), RODATA|NOPTR, $32

DATA fifthByte<>+0x00(SB)/8, $0x8080800180808000
DATA fifthByte<>+0x08(SB)/8, $0x8080800380808002
DATA fifthByte<>+0x10(SB)/8, $0x8080800180808000
DATA fifthByte<>+0x18(SB)/8, $0x8080800380808002
GLOBL fifthByte<>(SB), RODATA|NOPTR, $32

// gramWeights[n] weighs the four bytes of a dword for VPMADDUBSW at
// n-gram length n: 32 on the older code of each pair, 1 on the newer,
// 0 on codes older than the n-gram. n = 5 adds its fifth code apart.
DATA gramWeights<>+0x04(SB)/4, $0x01000000
DATA gramWeights<>+0x08(SB)/4, $0x01200000
DATA gramWeights<>+0x0c(SB)/4, $0x01200100
DATA gramWeights<>+0x10(SB)/4, $0x01200120
DATA gramWeights<>+0x14(SB)/4, $0x01200120
GLOBL gramWeights<>(SB), RODATA|NOPTR, $24

// pairWeights joins a dword's two 10-bit words for VPMADDWD: the older
// pair times 1024 plus the newer.
DATA pairWeights<>+0x00(SB)/4, $0x00010400
GLOBL pairWeights<>(SB), RODATA|NOPTR, $4

// laneBits has bit j of a mask byte in byte lane j.
DATA laneBits<>+0x00(SB)/8, $0x8040201008040201
GLOBL laneBits<>(SB), RODATA|NOPTR, $8

// round<r> broadcasts mask r of each lane (dword r): its low byte to
// byte lanes 0-7 and its high byte to lanes 8-15.
DATA round0<>+0x00(SB)/8, $0x0000000000000000
DATA round0<>+0x08(SB)/8, $0x0101010101010101
DATA round0<>+0x10(SB)/8, $0x0000000000000000
DATA round0<>+0x18(SB)/8, $0x0101010101010101
GLOBL round0<>(SB), RODATA|NOPTR, $32
DATA round1<>+0x00(SB)/8, $0x0404040404040404
DATA round1<>+0x08(SB)/8, $0x0505050505050505
DATA round1<>+0x10(SB)/8, $0x0404040404040404
DATA round1<>+0x18(SB)/8, $0x0505050505050505
GLOBL round1<>(SB), RODATA|NOPTR, $32
DATA round2<>+0x00(SB)/8, $0x0808080808080808
DATA round2<>+0x08(SB)/8, $0x0909090909090909
DATA round2<>+0x10(SB)/8, $0x0808080808080808
DATA round2<>+0x18(SB)/8, $0x0909090909090909
GLOBL round2<>(SB), RODATA|NOPTR, $32
DATA round3<>+0x00(SB)/8, $0x0c0c0c0c0c0c0c0c
DATA round3<>+0x08(SB)/8, $0x0d0d0d0d0d0d0d0d
DATA round3<>+0x10(SB)/8, $0x0c0c0c0c0c0c0c0c
DATA round3<>+0x18(SB)/8, $0x0d0d0d0d0d0d0d0d
GLOBL round3<>(SB), RODATA|NOPTR, $32

DATA byte10<>+0x00(SB)/4, $0x10101010
GLOBL byte10<>(SB), RODATA|NOPTR, $4
DATA byte40<>+0x00(SB)/4, $0x40404040
GLOBL byte40<>(SB), RODATA|NOPTR, $4
DATA byte80<>+0x00(SB)/4, $0x80808080
GLOBL byte80<>(SB), RODATA|NOPTR, $4

// XLAT translates the 32 bytes of Y0 into codes in Y1 (Y0, Y2-Y4
// clobbered): the cascade of xlat's tables, held in Y8-Y15, over each
// half, with 0x40 in every byte of Y6, 0x10 of Y7 and 0x80 of Y5.
#define XLAT \
	VPSUBSB Y6, Y0, Y2; \
	VPXOR Y5, Y0, Y0; \
	VPSUBSB Y6, Y0, Y3; \
	VPSHUFB Y2, Y8, Y1; \
	VPSHUFB Y3, Y12, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSUBSB Y7, Y2, Y2; \
	VPSUBSB Y7, Y3, Y3; \
	VPSHUFB Y2, Y9, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSHUFB Y3, Y13, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSUBSB Y7, Y2, Y2; \
	VPSUBSB Y7, Y3, Y3; \
	VPSHUFB Y2, Y10, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSHUFB Y3, Y14, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSUBSB Y7, Y2, Y2; \
	VPSUBSB Y7, Y3, Y3; \
	VPSHUFB Y2, Y11, Y4; \
	VPXOR Y4, Y1, Y1; \
	VPSHUFB Y3, Y15, Y4; \
	VPXOR Y4, Y1, Y1

// ROUND sets t to -1 in each byte lane whose language's bit is set in
// the mask pair pat broadcasts from g (Y10 holds laneBits).
#define ROUND(pat, g, t) \
	VPSHUFB pat, g, t; \
	VPAND Y10, t, t; \
	VPCMPEQB Y10, t, t

// func countGroups(plane []uint16, reg uint64, p []byte, out []uint64) uint64
//
// Frame: the codes of up to 64 groups, after four codes of history
// from reg, with 32 bytes of slack for the last block's store and the
// last group's loads.
TEXT ·countGroups(SB), 0, $1064-88
	NO_LOCAL_POINTERS
	MOVQ plane_base+0(FP), DI
	MOVQ plane_len+8(FP), R9
	MOVQ reg+24(FP), BX
	MOVQ p_base+32(FP), SI
	MOVQ p_len+40(FP), CX
	MOVQ out_base+56(FP), DX
	MOVQ out_len+64(FP), R11

	// groups = min(len(p)/16, len(out)/2, 64)
	SHRQ $4, CX
	SHRQ $1, R11
	CMPQ R11, CX
	CMOVQLT R11, CX
	MOVQ $64, AX
	CMPQ AX, CX
	CMOVQLT AX, CX
	TESTQ CX, CX
	JZ   none

	// n = log2(len(plane))/5, from 1 to 5.
	BSRQ R9, AX
	JZ   none
	IMULQ $205, AX
	SHRQ $10, AX
	CMPQ AX, $1
	JB   none
	CMPQ AX, $5
	JA   none
	MOVQ AX, R13
	XORQ R10, R10
	CMPQ AX, $5
	SETEQ R10

	// History: codes c[-4..-1] of the register.
	LEAQ codes-1064(SP), R8
	MOVQ BX, AX
	ANDL $31, AX
	MOVB AX, 3(R8)
	MOVQ BX, AX
	SHRQ $5, AX
	ANDL $31, AX
	MOVB AX, 2(R8)
	MOVQ BX, AX
	SHRQ $10, AX
	ANDL $31, AX
	MOVB AX, 1(R8)
	MOVQ BX, AX
	SHRQ $15, AX
	ANDL $31, AX
	MOVB AX, 0(R8)

	// Translate 32 bytes a step; a last 16 take the low lane alone.
	VMOVDQU ·xlat+0(SB), Y8
	VMOVDQU ·xlat+32(SB), Y9
	VMOVDQU ·xlat+64(SB), Y10
	VMOVDQU ·xlat+96(SB), Y11
	VMOVDQU ·xlat+128(SB), Y12
	VMOVDQU ·xlat+160(SB), Y13
	VMOVDQU ·xlat+192(SB), Y14
	VMOVDQU ·xlat+224(SB), Y15
	VPBROADCASTD byte40<>(SB), Y6
	VPBROADCASTD byte10<>(SB), Y7
	VPBROADCASTD byte80<>(SB), Y5
	MOVQ CX, R11
	SHLQ $4, R11
	XORQ R12, R12

xlatLoop:
	CMPQ R11, $16
	JEQ  xlatHalf
	VMOVDQU (SI)(R12*1), Y0
	JMP  xlatBlock

xlatHalf:
	VMOVDQU (SI)(R12*1), X0

xlatBlock:
	XLAT
	VMOVDQU Y1, 4(R8)(R12*1)
	ADDQ $32, R12
	SUBQ $32, R11
	JG   xlatLoop

	// The register after p: its last 13 codes, as countLanes shifts
	// them in (the oldest loses its top bit).
	MOVQ CX, R11
	SHLQ $4, R11
	LEAQ -9(R8)(R11*1), R11
	XORQ BX, BX
	MOVQ $13, AX

regLoop:
	SHLQ $5, BX
	MOVBQZX (R11), R12
	ORQ  R12, BX
	INCQ R11
	DECQ AX
	JNZ  regLoop

	// Count group by group.
	LEAQ gramWeights<>(SB), R9
	VPBROADCASTD (R9)(R13*4), Y7
	VMOVDQU gramBytes<>(SB), Y6
	VPBROADCASTD pairWeights<>(SB), Y8
	VMOVDQU fifthByte<>(SB), Y9
	VPBROADCASTQ laneBits<>(SB), Y10
	VMOVDQU round0<>(SB), Y11
	VMOVDQU round1<>(SB), Y12
	VMOVDQU round2<>(SB), Y13
	VMOVDQU round3<>(SB), Y14
	XORQ R12, R12

groupLoop:
	VMOVDQU     (R8)(R12*1), X0
	VINSERTI128 $1, 4(R8)(R12*1), Y0, Y0
	VMOVDQU     8(R8)(R12*1), X1
	VINSERTI128 $1, 12(R8)(R12*1), Y1, Y1
	TESTQ R10, R10
	JZ    gramIndex
	VPSHUFB Y9, Y0, Y2
	VPSHUFB Y9, Y1, Y3
	VPSLLD  $20, Y2, Y2
	VPSLLD  $20, Y3, Y3

gramIndex:
	VPSHUFB    Y6, Y0, Y0
	VPSHUFB    Y6, Y1, Y1
	VPMADDUBSW Y7, Y0, Y0
	VPMADDUBSW Y7, Y1, Y1
	VPMADDWD   Y8, Y0, Y0
	VPMADDWD   Y8, Y1, Y1
	TESTQ R10, R10
	JZ    gather
	VPOR Y2, Y0, Y0
	VPOR Y3, Y1, Y1

gather:
	VPCMPEQD   Y2, Y2, Y2
	VPXOR      Y4, Y4, Y4
	VPGATHERDD Y2, (DI)(Y0*2), Y4
	VPCMPEQD   Y3, Y3, Y3
	VPXOR      Y5, Y5, Y5
	VPGATHERDD Y3, (DI)(Y1*2), Y5

	// Eight rounds, two masks each, summed as negative counts.
	ROUND(Y11, Y4, Y0)
	ROUND(Y12, Y4, Y1)
	VPADDB Y1, Y0, Y0
	ROUND(Y13, Y4, Y1)
	ROUND(Y14, Y4, Y2)
	VPADDB Y2, Y1, Y1
	ROUND(Y11, Y5, Y2)
	ROUND(Y12, Y5, Y3)
	VPADDB Y3, Y2, Y2
	ROUND(Y13, Y5, Y3)
	ROUND(Y14, Y5, Y4)
	VPADDB Y4, Y3, Y3
	VPADDB Y1, Y0, Y0
	VPADDB Y3, Y2, Y2
	VPADDB Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDB  X1, X0, X0
	VPABSB  X0, X0
	VMOVDQU X0, (DX)
	ADDQ $16, DX
	ADDQ $16, R12
	DECQ CX
	JNZ  groupLoop

	VZEROUPPER
	MOVQ BX, ret+80(FP)
	RET

none:
	VZEROUPPER
	MOVQ BX, ret+80(FP)
	RET

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
