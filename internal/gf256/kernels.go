package gf256

import "encoding/binary"

// Slice kernels: bulk field operations over whole byte slices. These exist
// because the Shamir hot path (internal/shamir) evaluates one polynomial per
// secret byte at the same x for every share — restructured block-wise, that
// is a handful of constant-times-slice passes instead of len(secret)·k
// scalar Horner steps.
//
// Each public entry point validates its arguments, handles the degenerate
// multipliers (0 and 1), and hands the general case to the kernel selected
// at init (see kernel_select.go): the portable shift-and-add kernel
// multiplying 8 bytes per uint64, the amd64 vpshufb kernel working from the
// 16-entry nibble tables, or the amd64 GFNI kernel multiplying 32 bytes per
// instruction. All kernels are bit-identical by construction and pinned so
// by the differential tests.
//
// No kernel indexes memory by its data operand, so the time and cache
// footprint of a pass depend only on its length and its multiplier. The
// multiplier is always public — a share x-coordinate or a Lagrange weight —
// so the portable kernel may branch on its bits, and nibTab is indexed by it
// alone.
//
// AddMulSlice and AddSlice require len(src) == len(dst), and HornerBlock a
// window inside dst and every block; each panics otherwise: a length
// mismatch is a programming error in the caller's buffer management, never a
// runtime condition.

// nibTab[c] packs the two 16-entry nibble product tables for c — low-nibble
// products in [0,16), high-nibble products in [16,32) — the layout the avx2
// kernel broadcasts into registers (one vpshufb per nibble). 8 KiB total,
// built by initTables.
var nibTab [256][32]byte

// AddMulSlice accumulates dst[i] ^= c * src[i] for every i — the
// scaled-accumulate step of Lagrange reconstruction (secret += w_i · Y_i).
// dst and src must not overlap.
//
//remicss:noalloc
func AddMulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: AddMulSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		AddSlice(dst, src)
		return
	}
	kern.Load().addMulPass(dst, src, c)
}

// HornerBlock evaluates the window [lo, hi) of a batch of polynomials at x,
// fused across every coefficient block: with blocks ordered highest-degree
// coefficient first and ending with the constant term, it computes
//
//	dst[i] = (...((blocks[0][i]*x ^ blocks[1][i])*x ^ blocks[2][i])...)*x ^ blocks[last][i]
//
// for i in [lo, hi). Iterating lo over L1-sized tiles and, inside each tile,
// over every evaluation point keeps the coefficient tile cache-resident while
// all shares are produced from it — the loop-interchanged form of one
// Horner pass per block over the full length. This is the package's one
// Horner entry point: a single step acc = x*acc ^ coeff is the two-block
// call with blocks (acc, coeff). dst must not overlap any block; every block
// must cover [lo, hi).
//
//remicss:noalloc
func HornerBlock(dst []byte, x byte, blocks [][]byte, lo, hi int) {
	if len(blocks) == 0 {
		panic("gf256: HornerBlock with no coefficient blocks")
	}
	if lo < 0 || hi < lo || hi > len(dst) {
		panic("gf256: HornerBlock window out of range")
	}
	for _, b := range blocks {
		if len(b) < hi {
			panic("gf256: HornerBlock coefficient block shorter than window")
		}
	}
	if x == 0 {
		// Every higher-degree term vanishes; the value is the constant term.
		copy(dst[lo:hi], blocks[len(blocks)-1][lo:hi])
		return
	}
	k := kern.Load()
	if k == &gfniKernel && len(blocks) > 1 {
		// The fused pass, by direct call: handing blocks to a func value
		// would move the caller's blocks array to the heap.
		gfniHorner(dst, x, blocks, lo, hi)
		return
	}
	copy(dst[lo:hi], blocks[0][lo:hi])
	for _, c := range blocks[1:] {
		k.mulXorPass(dst[lo:hi], c[lo:hi], x)
	}
}

// AddSlice accumulates dst[i] ^= src[i] for every i (field addition is XOR)
// through the active kernel's xor pass — the XOR scheme folds every pad
// through here, so the pass is as hot as the multiply kernels. dst and src
// must not partially overlap (dst == src zeroes dst, which is correct but
// useless).
//
//remicss:noalloc
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: AddSlice length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	kern.Load().xorPass(dst, src)
}

// Portable kernel passes: each uint64 carries 8 field elements, multiplied
// by shift-and-add in at most 8 rounds that branch only on the bits of the
// public multiplier. This is the kernel on every build without the amd64
// assembly, and the vector tiers finish their ragged tails through it.

var portableKernel = kernel{
	name:       "portable",
	addMulPass: portableAddMulPass,
	mulXorPass: portableMulXorPass,
	xorPass:    portableXorPass,
}

// xtime8 multiplies each of the 8 bytes packed in v by x (0x02): shift every
// byte left and fold each carried-out top bit back in as the reduction
// polynomial's low byte, 0x1b.
func xtime8(v uint64) uint64 {
	return (v&0x7f7f7f7f7f7f7f7f)<<1 ^ (v>>7&0x0101010101010101)*0x1b
}

// mul8 multiplies each of the 8 bytes packed in v by c.
func mul8(v uint64, c byte) uint64 {
	var acc uint64
	for ; c != 0; c >>= 1 {
		if c&1 != 0 {
			acc ^= v
		}
		v = xtime8(v)
	}
	return acc
}

// load8 reads the fewer than 8 bytes of b as one zero-padded word.
func load8(b []byte) uint64 {
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// store8 writes the low len(b) < 8 bytes of v to b.
func store8(b []byte, v uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	copy(b, w[:])
}

// portableAddMulPass accumulates dst[i] ^= c*src[i].
//
//remicss:noalloc
func portableAddMulPass(dst, src []byte, c byte) {
	le := binary.LittleEndian
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		le.PutUint64(dst[i:], le.Uint64(dst[i:])^mul8(le.Uint64(src[i:]), c))
	}
	if n < len(dst) {
		store8(dst[n:], load8(dst[n:])^mul8(load8(src[n:]), c))
	}
}

// portableMulXorPass computes acc[i] = x*acc[i] ^ coeff[i].
//
//remicss:noalloc
func portableMulXorPass(acc, coeff []byte, x byte) {
	le := binary.LittleEndian
	n := len(acc) &^ 7
	for i := 0; i < n; i += 8 {
		le.PutUint64(acc[i:], mul8(le.Uint64(acc[i:]), x)^le.Uint64(coeff[i:]))
	}
	if n < len(acc) {
		store8(acc[n:], mul8(load8(acc[n:]), x)^load8(coeff[n:]))
	}
}

// portableXorPass accumulates dst[i] ^= src[i] in 8-byte groups.
//
//remicss:noalloc
func portableXorPass(dst, src []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		// The compiler merges each 8-byte group into single word loads and
		// stores on little-endian targets.
		dst[i+0] ^= src[i+0]
		dst[i+1] ^= src[i+1]
		dst[i+2] ^= src[i+2]
		dst[i+3] ^= src[i+3]
		dst[i+4] ^= src[i+4]
		dst[i+5] ^= src[i+5]
		dst[i+6] ^= src[i+6]
		dst[i+7] ^= src[i+7]
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}
