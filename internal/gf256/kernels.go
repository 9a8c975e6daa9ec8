package gf256

// Slice kernels: bulk field operations over whole byte slices. These exist
// because the Shamir hot path (internal/shamir) evaluates one polynomial per
// secret byte at the same x for every share — restructured block-wise, that
// is a handful of constant-times-slice passes instead of len(secret)·k
// scalar Horner steps.
//
// Each public entry point validates its arguments, handles the degenerate
// multipliers (0 and 1), and hands the general case to the kernel selected
// at init (see kernel_select.go): the scalar 64 KiB-product-table loop, the
// pure-Go word-sliced kernel processing 8 bytes per step, the amd64 vpshufb
// kernel working from the 16-entry nibble tables, or the amd64 GFNI kernel
// multiplying 32 bytes per instruction. All kernels are bit-identical by
// construction and pinned so by the differential tests.
//
// All kernels require len(src) == len(dst) (or len(acc) == len(coeff)) and
// panic otherwise: a length mismatch is a programming error in the caller's
// buffer management, never a runtime condition.

// mulTable[c] is the multiplication-by-c row: mulTable[c][a] = c*a. 64 KiB,
// built by initTables (gf256.go) together with the log/exp tables it is
// derived from; row access makes the scalar kernel branch-free per byte and
// seeds the nibble and wide tables the faster kernels use.
var mulTable [256][256]byte

// nibTab[c] packs the two 16-entry nibble product tables for c — low-nibble
// products in [0,16), high-nibble products in [16,32) — the layout the
// vector kernel broadcasts into registers (one vpshufb per nibble) and the
// wide-table builder expands from. 8 KiB total, built by initTables.
var nibTab [256][32]byte

// MulSlice sets dst[i] = c * src[i] for every i. dst and src may be the
// same slice (in-place scaling); partial overlap is not supported.
//
//remicss:noalloc
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	kern.Load().mulPass(dst, src, c)
}

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

// MulAddSlice performs one block Horner step: acc[i] = acc[i]*x ^ coeff[i]
// for every i. Iterated from the highest-degree coefficient slice down to
// the constant term, it evaluates len(acc) polynomials at x in parallel.
// acc and coeff must not overlap.
//
//remicss:noalloc
func MulAddSlice(acc []byte, x byte, coeff []byte) {
	if len(acc) != len(coeff) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if x == 0 {
		copy(acc, coeff)
		return
	}
	kern.Load().mulXorPass(acc, coeff, x)
}

// HornerBlock evaluates the window [lo, hi) of a batch of polynomials at x,
// fused across every coefficient block: with blocks ordered highest-degree
// coefficient first and ending with the constant term, it computes
//
//	dst[i] = (...((blocks[0][i]*x ^ blocks[1][i])*x ^ blocks[2][i])...)*x ^ blocks[last][i]
//
// for i in [lo, hi). Iterating lo over L1-sized tiles and, inside each tile,
// over every evaluation point keeps the coefficient tile cache-resident while
// all shares are produced from it — the loop-interchanged form of calling
// MulAddSlice once per block over the full length. dst must not overlap any
// block; every block must cover [lo, hi).
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

// scalarXorPass accumulates dst[i] ^= src[i] in 8-byte groups.
//
//remicss:noalloc
func scalarXorPass(dst, src []byte) {
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

// Scalar kernel passes: one 64 KiB-table load and one XOR per byte against a
// pinned 256-byte row, 8-way unrolled. This is the reference implementation
// every other kernel is differentially pinned against, and the fallback when
// neither the word-sliced nor the vector path is selected.

// scalarMulPass sets dst[i] = c*src[i]; c is never 0 or 1 here.
//
//remicss:noalloc
func scalarMulPass(dst, src []byte, c byte) {
	row := &mulTable[c]
	for i, s := range src {
		dst[i] = row[s]
	}
}

// scalarAddMulPass accumulates dst[i] ^= c*src[i]; c is never 0 or 1 here.
//
//remicss:noalloc
func scalarAddMulPass(dst, src []byte, c byte) {
	row := &mulTable[c]
	for i, s := range src {
		dst[i] ^= row[s]
	}
}

// scalarMulXorPass computes acc[i] = x*acc[i] ^ coeff[i]; x is never 0 here.
//
//remicss:noalloc
func scalarMulXorPass(acc, coeff []byte, x byte) {
	row := &mulTable[x]
	n := len(acc) &^ 7
	for i := 0; i < n; i += 8 {
		acc[i+0] = row[acc[i+0]] ^ coeff[i+0]
		acc[i+1] = row[acc[i+1]] ^ coeff[i+1]
		acc[i+2] = row[acc[i+2]] ^ coeff[i+2]
		acc[i+3] = row[acc[i+3]] ^ coeff[i+3]
		acc[i+4] = row[acc[i+4]] ^ coeff[i+4]
		acc[i+5] = row[acc[i+5]] ^ coeff[i+5]
		acc[i+6] = row[acc[i+6]] ^ coeff[i+6]
		acc[i+7] = row[acc[i+7]] ^ coeff[i+7]
	}
	for i := n; i < len(acc); i++ {
		acc[i] = row[acc[i]] ^ coeff[i]
	}
}
