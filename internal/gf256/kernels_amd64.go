//go:build amd64 && !purego

package gf256

// The amd64 vector kernels. Two tiers, both 256-bit VEX code (Y0–Y15, no
// EVEX/ZMM; DESIGN §13 says why):
//
//   - gfni: VGF2P8MULB multiplies 32 byte pairs modulo 0x11b — this
//     field's own polynomial — in one instruction, against the multiplier
//     broadcast into a register. No tables at all. HornerBlock reaches a
//     fused pass (gfniHorner) that keeps the accumulator in registers
//     across every coefficient block.
//   - avx2: the vpshufb idiom used by production Reed-Solomon codecs. The
//     two 16-entry nibble tables for the multiplier (nibTab[c]) are
//     broadcast into one YMM register each; every 32-byte step splits the
//     data into low and high nibbles, resolves both through a single
//     VPSHUFB each, and XORs the halves — two in-register shuffles per 32
//     bytes where the portable kernel runs up to 8 shift-and-add rounds
//     per 8 bytes.
//
// The portable kernel, constant-time without tables, runs below 1 GB/s per
// pass for a general multiplier; one instruction per 32 products is what
// justifies carrying assembly here (see DESIGN §13).
//
// The assembly handles whole 32-byte groups; the Go wrappers finish the
// ragged tail through the portable passes, so every length is bit-identical
// to the reference and no tail indexes memory by data.

// Assembly routines (kernels_amd64.s). tab points at nibTab[c] (low-nibble
// products in tab[0:16], high-nibble products in tab[16:32]); n is a
// positive multiple of 32.
//
//go:noescape
func gfAddMulAVX2(tab *byte, dst, src *byte, n int)

//go:noescape
func gfMulXorAVX2(tab *byte, acc, coeff *byte, n int)

//go:noescape
func gfXorAVX2(dst, src *byte, n int)

// GFNI routines (kernels_amd64.s): c is the multiplier itself; n is a
// positive multiple of 32.
//
//go:noescape
func gfAddMulGFNI(c byte, dst, src *byte, n int)

// gfHornerGFNI evaluates dst[i] for i in [off, off+n) from the nb ≥ 2
// coefficient blocks at blocks (highest degree first), each read at the
// same index i; n is a positive multiple of 32.
//
//go:noescape
func gfHornerGFNI(x byte, dst *byte, blocks *[]byte, nb, off, n int)

// cpuid executes CPUID with the given leaf and subleaf (kernels_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (kernels_amd64.s).
func xgetbv() (eax, edx uint32)

// gfni has no Horner step of its own: HornerBlock sends every call with two
// or more blocks on this tier to gfniHorner, so mulXorPass is not reached
// here. It holds avx2's step, which every gfni host can run (detectVector
// requires AVX2 for gfni).
var gfniKernel = kernel{
	name:       "gfni",
	addMulPass: gfniAddMulPass,
	mulXorPass: avx2MulXorPass,
	xorPass:    avx2XorPass,
}

var avx2Kernel = kernel{
	name:       "avx2",
	addMulPass: avx2AddMulPass,
	mulXorPass: avx2MulXorPass,
	xorPass:    avx2XorPass,
}

// haveAVX2 and haveGFNI are probed once at package init, before kernel
// selection runs.
var haveAVX2, haveGFNI = detectVector()

// avx2Available gates the avx2 kernel on CPU support and on the OS having
// enabled YMM state (XGETBV), the same checks the runtime's cpu package
// performs.
func avx2Available() bool { return haveAVX2 }

// gfniAvailable gates the gfni kernel on everything avx2 needs plus GFNI.
func gfniAvailable() bool { return haveGFNI }

// detectVector checks OSXSAVE+AVX (leaf 1), OS XMM/YMM state enablement
// (XCR0 bits 1 and 2), and then AVX2 (leaf 7 EBX bit 5) and GFNI (leaf 7
// ECX bit 8). The gfni tier's VEX-encoded VGF2P8MULB needs the same YMM
// state as AVX2, and its wrappers reuse the AVX2 xor pass.
func detectVector() (avx2, gfni bool) {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false, false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	avx2 = ebx7&(1<<5) != 0
	return avx2, avx2 && ecx7&(1<<8) != 0
}

// avx2AddMulPass accumulates dst[i] ^= c*src[i]; c ∉ {0, 1}.
//
//remicss:noalloc
func avx2AddMulPass(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n > 0 {
		gfAddMulAVX2(&nibTab[c][0], &dst[0], &src[0], n)
	}
	portableAddMulPass(dst[n:], src[n:], c)
}

// avx2XorPass accumulates dst[i] ^= src[i], 32 bytes per VPXOR.
//
//remicss:noalloc
func avx2XorPass(dst, src []byte) {
	n := len(dst) &^ 31
	if n > 0 {
		gfXorAVX2(&dst[0], &src[0], n)
	}
	portableXorPass(dst[n:], src[n:])
}

// avx2MulXorPass computes acc[i] = x*acc[i] ^ coeff[i]; x ≠ 0.
//
//remicss:noalloc
func avx2MulXorPass(acc, coeff []byte, x byte) {
	n := len(acc) &^ 31
	if n > 0 {
		gfMulXorAVX2(&nibTab[x][0], &acc[0], &coeff[0], n)
	}
	portableMulXorPass(acc[n:], coeff[n:], x)
}

// gfniAddMulPass accumulates dst[i] ^= c*src[i]; c ∉ {0, 1}.
//
//remicss:noalloc
func gfniAddMulPass(dst, src []byte, c byte) {
	n := len(dst) &^ 31
	if n > 0 {
		gfAddMulGFNI(c, &dst[0], &src[0], n)
	}
	portableAddMulPass(dst[n:], src[n:], c)
}

// gfniHorner is HornerBlock's body on the gfni tier, called directly (a
// func-value field here would make the caller's blocks array escape): the
// accumulator for each 32-byte group stays in a register across all
// len(blocks) ≥ 2 coefficient blocks and is stored once. HornerBlock has
// checked the window and peeled x = 0.
//
//remicss:noalloc
func gfniHorner(dst []byte, x byte, blocks [][]byte, lo, hi int) {
	n := (hi - lo) &^ 31
	if n > 0 {
		gfHornerGFNI(x, &dst[0], &blocks[0], len(blocks), lo, n)
	}
	lo += n
	copy(dst[lo:hi], blocks[0][lo:hi])
	for _, c := range blocks[1:] {
		portableMulXorPass(dst[lo:hi], c[lo:hi], x)
	}
}
