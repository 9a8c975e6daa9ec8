//go:build amd64 && !purego

#include "textflag.h"

// AVX2 GF(2^8) multiply-by-constant kernels, vpshufb idiom: for each source byte
// b, the product c*b = lo[b & 0x0f] ^ hi[b >> 4], where lo and hi are the
// 16-entry nibble product tables for c (nibTab[c][0:16] and nibTab[c][16:32]
// in Go). Both tables are broadcast across the two 128-bit lanes of a YMM
// register, so one VPSHUFB resolves 32 lookups. Callers guarantee n is a
// positive multiple of 32.
//
// Register plan (identical in both routines):
//   Y4  low-nibble product table, both lanes
//   Y5  high-nibble product table, both lanes
//   Y6  0x0f byte mask
//   Y0  data / low nibbles / low products
//   Y1  high nibbles / high products

DATA nibMask<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// func gfAddMulAVX2(tab *byte, dst, src *byte, n int)
// dst[i] ^= c*src[i]
TEXT ·gfAddMulAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 16(AX), Y5
	VMOVDQU nibMask<>(SB), Y6

addMulLoop:
	VMOVDQU (SI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y0
	VPSHUFB Y1, Y5, Y1
	VPXOR   Y1, Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     addMulLoop

	VZEROUPPER
	RET

// func gfMulXorAVX2(tab *byte, acc, coeff *byte, n int)
// acc[i] = x*acc[i] ^ coeff[i]  (the fused Horner step)
TEXT ·gfMulXorAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ acc+8(FP), DI
	MOVQ coeff+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 16(AX), Y5
	VMOVDQU nibMask<>(SB), Y6

mulXorLoop:
	VMOVDQU (DI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y0
	VPSHUFB Y1, Y5, Y1
	VPXOR   Y1, Y0, Y0
	VPXOR   (SI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     mulXorLoop

	VZEROUPPER
	RET

// func gfXorAVX2(dst, src *byte, n int)
// dst[i] ^= src[i] — plain field addition, no nibble tables. Callers
// guarantee n is a positive multiple of 32.
TEXT ·gfXorAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

xorLoop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, CX
	JNZ     xorLoop

	VZEROUPPER
	RET

// GFNI kernels: VGF2P8MULB multiplies each byte pair modulo x^8+x^4+x^3+x+1
// (0x11b), the field's own polynomial, so c*b is one instruction against
// the multiplier broadcast into every byte of Y7. VEX.256 encodings only.
// Callers guarantee n is a positive multiple of 32.

// func gfAddMulGFNI(c byte, dst, src *byte, n int)
// dst[i] ^= c*src[i]
TEXT ·gfAddMulGFNI(SB), NOSPLIT, $0-32
	MOVBLZX c+0(FP), AX
	MOVQ    dst+8(FP), DI
	MOVQ    src+16(FP), SI
	MOVQ    n+24(FP), CX
	MOVQ    AX, X7
	VPBROADCASTB X7, Y7

gfniAddMulLoop:
	VGF2P8MULB (SI), Y7, Y0
	VPXOR      (DI), Y0, Y0
	VMOVDQU    Y0, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $32, CX
	JNZ        gfniAddMulLoop

	VZEROUPPER
	RET

// func gfHornerGFNI(x byte, dst *byte, blocks *[]byte, nb, off, n int)
// dst[i] = (...(blocks[0][i]*x ^ blocks[1][i])*x ...)*x ^ blocks[nb-1][i]
// for i in [off, off+n). The accumulators never leave Y0–Y3 between
// coefficient blocks: one load per block and one store per 32 bytes, where
// a pass per block would load and store the accumulator nb-1 times. Four
// independent 32-byte groups per step hide VGF2P8MULB's latency; a one-group
// loop finishes what is left. nb ≥ 2; a []byte header is 24 bytes, data
// pointer first.
//
// Register plan:
//   Y7      x in every byte
//   DI      dst base; R10 the running index i; R11 off+n
//   R8      &blocks[0]; R9 nb
//   BX, DX  header walk: next block header, blocks left
//   SI      current block's data pointer
TEXT ·gfHornerGFNI(SB), NOSPLIT, $0-48
	MOVBLZX x+0(FP), AX
	MOVQ    dst+8(FP), DI
	MOVQ    blocks+16(FP), R8
	MOVQ    nb+24(FP), R9
	MOVQ    off+32(FP), R10
	MOVQ    n+40(FP), R11
	ADDQ    R10, R11
	MOVQ    AX, X7
	VPBROADCASTB X7, Y7

horner128:
	LEAQ    128(R10), AX
	CMPQ    AX, R11
	JA      horner32
	MOVQ    (R8), SI
	VMOVDQU (SI)(R10*1), Y0
	VMOVDQU 32(SI)(R10*1), Y1
	VMOVDQU 64(SI)(R10*1), Y2
	VMOVDQU 96(SI)(R10*1), Y3
	LEAQ    24(R8), BX
	LEAQ    -1(R9), DX

horner128Step:
	MOVQ       (BX), SI
	VGF2P8MULB Y7, Y0, Y0
	VGF2P8MULB Y7, Y1, Y1
	VGF2P8MULB Y7, Y2, Y2
	VGF2P8MULB Y7, Y3, Y3
	VPXOR      (SI)(R10*1), Y0, Y0
	VPXOR      32(SI)(R10*1), Y1, Y1
	VPXOR      64(SI)(R10*1), Y2, Y2
	VPXOR      96(SI)(R10*1), Y3, Y3
	ADDQ       $24, BX
	DECQ       DX
	JNZ        horner128Step

	VMOVDQU Y0, (DI)(R10*1)
	VMOVDQU Y1, 32(DI)(R10*1)
	VMOVDQU Y2, 64(DI)(R10*1)
	VMOVDQU Y3, 96(DI)(R10*1)
	MOVQ    AX, R10
	JMP     horner128

horner32:
	CMPQ    R10, R11
	JAE     hornerDone
	MOVQ    (R8), SI
	VMOVDQU (SI)(R10*1), Y0
	LEAQ    24(R8), BX
	LEAQ    -1(R9), DX

horner32Step:
	MOVQ       (BX), SI
	VGF2P8MULB Y7, Y0, Y0
	VPXOR      (SI)(R10*1), Y0, Y0
	ADDQ       $24, BX
	DECQ       DX
	JNZ        horner32Step

	VMOVDQU Y0, (DI)(R10*1)
	ADDQ    $32, R10
	JMP     horner32

hornerDone:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
