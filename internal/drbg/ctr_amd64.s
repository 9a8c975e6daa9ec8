//go:build amd64 && !purego

#include "textflag.h"

// The VAES counter keystream. 256-bit VEX code only (Y0–Y14, no EVEX/ZMM):
// every YMM register holds two AES blocks, and VAESENC runs one round on
// both. Both routines end in VZEROALL, so no round key or keystream block is
// left in a vector register.

// bswapMask reverses the 16 bytes of each 128-bit lane: a lane holding the
// qwords (lo, hi) little-endian becomes the big-endian counter block hi‖lo.
DATA bswapMask<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x08(SB)/8, $0x0001020304050607
DATA bswapMask<>+0x10(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x18(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $32

// ctrStep adds 2 to the low qword of each lane: the next pair of counters.
DATA ctrStep<>+0x00(SB)/8, $2
DATA ctrStep<>+0x08(SB)/8, $0
DATA ctrStep<>+0x10(SB)/8, $2
DATA ctrStep<>+0x18(SB)/8, $0
GLOBL ctrStep<>(SB), RODATA|NOPTR, $32

// ctrOne adds 1 to the low qword of an XMM counter.
DATA ctrOne<>+0x00(SB)/8, $1
DATA ctrOne<>+0x08(SB)/8, $0
GLOBL ctrOne<>(SB), RODATA|NOPTR, $16

// One AES-256 key-expansion step pair (the Intel AES-NI white paper's
// KEY_256_ASSIST_1/2). X1 holds the previous even round key, X3 the
// previous odd one; X2 and X4 are scratch.
#define EXPAND_EVEN(rcon, off) \
	VAESKEYGENASSIST rcon, X3, X2; \
	VPSHUFD  $0xff, X2, X2; \
	VPSLLDQ  $4, X1, X4; \
	VPXOR    X4, X1, X1; \
	VPSLLDQ  $4, X4, X4; \
	VPXOR    X4, X1, X1; \
	VPSLLDQ  $4, X4, X4; \
	VPXOR    X4, X1, X1; \
	VPXOR    X2, X1, X1; \
	VMOVDQU  X1, off(DI)

#define EXPAND_ODD(off) \
	VAESKEYGENASSIST $0x00, X1, X2; \
	VPSHUFD  $0xaa, X2, X2; \
	VPSLLDQ  $4, X3, X4; \
	VPXOR    X4, X3, X3; \
	VPSLLDQ  $4, X4, X4; \
	VPXOR    X4, X3, X3; \
	VPSLLDQ  $4, X4, X4; \
	VPXOR    X4, X3, X3; \
	VPXOR    X2, X3, X3; \
	VMOVDQU  X3, off(DI)

// func expandKeyAES256(key *[32]byte, sched *[240]byte)
// The 15 round keys of AES-256, by AESKEYGENASSIST: no table indexed by
// key bytes, so no cache-timing channel on the key.
TEXT ·expandKeyAES256(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ sched+8(FP), DI
	VMOVDQU (AX), X1
	VMOVDQU 16(AX), X3
	VMOVDQU X1, (DI)
	VMOVDQU X3, 16(DI)
	EXPAND_EVEN($0x01, 32)
	EXPAND_ODD(48)
	EXPAND_EVEN($0x02, 64)
	EXPAND_ODD(80)
	EXPAND_EVEN($0x04, 96)
	EXPAND_ODD(112)
	EXPAND_EVEN($0x08, 128)
	EXPAND_ODD(144)
	EXPAND_EVEN($0x10, 160)
	EXPAND_ODD(176)
	EXPAND_EVEN($0x20, 192)
	EXPAND_ODD(208)
	EXPAND_EVEN($0x40, 224)
	VZEROALL
	RET

// One AES round on the eight two-block registers Y0–Y7 under the round key
// at off(AX), broadcast to both lanes of Y8.
#define ROUND8(off) \
	VBROADCASTI128 off(AX), Y8; \
	VAESENC Y8, Y0, Y0; \
	VAESENC Y8, Y1, Y1; \
	VAESENC Y8, Y2, Y2; \
	VAESENC Y8, Y3, Y3; \
	VAESENC Y8, Y4, Y4; \
	VAESENC Y8, Y5, Y5; \
	VAESENC Y8, Y6, Y6; \
	VAESENC Y8, Y7, Y7

// Two counter blocks from the counter pair in Y13 into reg, then Y13 steps.
#define CTR2(reg) \
	VPSHUFB Y14, Y13, reg; \
	VPADDQ  Y12, Y13, Y13

// func ctrVAES(sched *[240]byte, dst *byte, hi, lo uint64, n int)
// dst[16i:16i+16] = AES_K(hi‖lo+1+i) for i in [0, n): CTR keystream written
// straight to dst, no clear-then-XOR. The low qword must not wrap (the
// caller checks lo+n), so counters step with VPADDQ and never carry.
// Sixteen blocks per iteration keep eight independent VAESENC chains in
// flight; a one-block loop finishes what is left.
//
// Register plan:
//   Y0–Y7   sixteen counter / state blocks
//   Y8      round key, both lanes
//   Y12     ctrStep; Y14 bswapMask
//   Y13     next counter pair as qwords (lo+j, hi | lo+j+1, hi)
TEXT ·ctrVAES(SB), NOSPLIT, $0-40
	MOVQ sched+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ hi+16(FP), BX
	MOVQ lo+24(FP), CX
	MOVQ n+32(FP), DX
	INCQ CX
	MOVQ CX, X13
	VPINSRQ $1, BX, X13, X13
	INCQ CX
	MOVQ CX, X12
	VPINSRQ $1, BX, X12, X12
	VINSERTI128 $1, X12, Y13, Y13
	VMOVDQU bswapMask<>(SB), Y14
	VMOVDQU ctrStep<>(SB), Y12
	CMPQ DX, $16
	JB   ctrTail

ctrLoop16:
	CTR2(Y0)
	CTR2(Y1)
	CTR2(Y2)
	CTR2(Y3)
	CTR2(Y4)
	CTR2(Y5)
	CTR2(Y6)
	CTR2(Y7)
	VBROADCASTI128 (AX), Y8
	VPXOR Y8, Y0, Y0
	VPXOR Y8, Y1, Y1
	VPXOR Y8, Y2, Y2
	VPXOR Y8, Y3, Y3
	VPXOR Y8, Y4, Y4
	VPXOR Y8, Y5, Y5
	VPXOR Y8, Y6, Y6
	VPXOR Y8, Y7, Y7
	ROUND8(16)
	ROUND8(32)
	ROUND8(48)
	ROUND8(64)
	ROUND8(80)
	ROUND8(96)
	ROUND8(112)
	ROUND8(128)
	ROUND8(144)
	ROUND8(160)
	ROUND8(176)
	ROUND8(192)
	ROUND8(208)
	VBROADCASTI128 224(AX), Y8
	VAESENCLAST Y8, Y0, Y0
	VAESENCLAST Y8, Y1, Y1
	VAESENCLAST Y8, Y2, Y2
	VAESENCLAST Y8, Y3, Y3
	VAESENCLAST Y8, Y4, Y4
	VAESENCLAST Y8, Y5, Y5
	VAESENCLAST Y8, Y6, Y6
	VAESENCLAST Y8, Y7, Y7
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	ADDQ $256, DI
	SUBQ $16, DX
	CMPQ DX, $16
	JAE  ctrLoop16

ctrTail:
	// The low lane of Y13 is the next unused counter.
	TESTQ DX, DX
	JZ    ctrDone
	VMOVDQU ctrOne<>(SB), X12

ctrLoop1:
	VPSHUFB X14, X13, X0
	VPADDQ  X12, X13, X13
	VPXOR   (AX), X0, X0
	VAESENC 16(AX), X0, X0
	VAESENC 32(AX), X0, X0
	VAESENC 48(AX), X0, X0
	VAESENC 64(AX), X0, X0
	VAESENC 80(AX), X0, X0
	VAESENC 96(AX), X0, X0
	VAESENC 112(AX), X0, X0
	VAESENC 128(AX), X0, X0
	VAESENC 144(AX), X0, X0
	VAESENC 160(AX), X0, X0
	VAESENC 176(AX), X0, X0
	VAESENC 192(AX), X0, X0
	VAESENC 208(AX), X0, X0
	VAESENCLAST 224(AX), X0, X0
	VMOVDQU X0, (DI)
	ADDQ $16, DI
	DECQ DX
	JNZ  ctrLoop1

ctrDone:
	VZEROALL
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
