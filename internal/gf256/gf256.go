// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is realized as GF(2)[x] / (x^8 + x^4 + x^3 + x + 1), the same
// irreducible polynomial used by AES (0x11b).
//
// Two kinds of operation, with different timing properties:
//
//   - The slice kernels (MulSlice, AddMulSlice, MulAddSlice, HornerBlock,
//     AddSlice) are data-independent: no memory is indexed by the data
//     bytes, and branches depend only on lengths and the multiplier, which
//     callers take from public values (share x-coordinates, Lagrange
//     weights). Secret bytes go through these.
//   - Mul, Div, Inv, Exp, Log, Pow, EvalPoly and Interpolate are lookups in
//     the discrete log/exp tables (generator 0x03) with zero checks, so
//     their cache footprint depends on their operands. They are meant for
//     public operands: x-coordinates and Lagrange weights. internal/blakley's
//     Gaussian elimination is the one caller that still feeds them secret
//     data.
//
// This package is the arithmetic substrate for the Shamir threshold scheme
// in internal/shamir: secrets and shares are processed byte-by-byte, with
// each byte an element of this field.
package gf256

import (
	"fmt"
	"sync"
)

// poly is the AES irreducible polynomial x^8+x^4+x^3+x+1 used for reduction.
const poly = 0x11b

// generator is a primitive element of the field (0x03 generates the whole
// multiplicative group under this reduction polynomial).
const generator = 0x03

var (
	// expTable[i] = generator^i for i in [0, 510). The table is doubled so
	// Mul can index logA+logB without an explicit modular reduction.
	expTable [510]byte
	// logTable[a] = discrete log of a (base generator) for a in [1, 255].
	logTable [256]byte
)

// initTables builds every lookup table in this package — exp/log first, then
// the nibble tables the avx2 kernel broadcasts. All construction
// lives in one function so there is exactly one ordering, independent of the
// source-file order Go would otherwise use to sequence per-file init funcs.
// sync.OnceFunc makes explicit calls from any entry point idempotent.
var initTables = sync.OnceFunc(buildTables)

func init() { initTables() }

func buildTables() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		expTable[i+255] = byte(x)
		logTable[x] = byte(i)
		// Multiply by the generator (0x03 = x + 1): shift-and-add.
		x = x<<1 ^ x
		if x >= 0x100 {
			x ^= poly
		}
	}
	// nibTab[c] is the split-nibble product table pair for c: entries [0,16)
	// hold c*n for the low nibble n, entries [16,32) hold c*(n<<4) for the
	// high nibble n. Multiplication is GF(2)-linear, so
	// c*b = nibTab[c][b&0x0f] ^ nibTab[c][16+(b>>4)] — the vpshufb idiom the
	// avx2 kernel builds on. Derived through Mul, so it must be built after
	// the log/exp tables above.
	for c := 0; c < 256; c++ {
		for n := 0; n < 16; n++ {
			nibTab[c][n] = Mul(byte(c), byte(n))
			nibTab[c][16+n] = Mul(byte(c), byte(n<<4))
		}
	}
	// The kernel for the general slice paths is selected exactly once, after
	// every table it may capture is final.
	selectKernel()
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse, so
// Sub is identical to Add.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8). In characteristic 2 this equals Add.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero: division by zero is
// a programming error, not a recoverable runtime condition.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns generator^n, reducing n modulo 255.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns the discrete logarithm of a to the generator base.
// It panics if a is zero, which has no logarithm.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Pow returns a raised to the power n (n >= 0). Pow(0, 0) is defined as 1.
func Pow(a byte, n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", n))
	}
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return Exp(Log(a) * n % 255)
}

// EvalPoly evaluates the polynomial with the given coefficients at x using
// Horner's method. coeffs[0] is the constant term.
func EvalPoly(coeffs []byte, x byte) byte {
	var y byte
	for i := len(coeffs) - 1; i >= 0; i-- {
		y = Add(Mul(y, x), coeffs[i])
	}
	return y
}

// Interpolate performs Lagrange interpolation at x=at over the points
// (xs[i], ys[i]). The xs must be pairwise distinct; Interpolate panics on a
// duplicate abscissa because the interpolating polynomial is then undefined.
func Interpolate(xs, ys []byte, at byte) byte {
	if len(xs) != len(ys) {
		panic("gf256: mismatched interpolation point slices")
	}
	var result byte
	for i := range xs {
		num, den := byte(1), byte(1)
		for j := range xs {
			if i == j {
				continue
			}
			if xs[i] == xs[j] {
				panic("gf256: duplicate interpolation abscissa")
			}
			num = Mul(num, Sub(at, xs[j]))
			den = Mul(den, Sub(xs[i], xs[j]))
		}
		result = Add(result, Mul(ys[i], Div(num, den)))
	}
	return result
}

// InterpolateAtZero is Interpolate specialized to at=0, the common case for
// Shamir secret recovery (the secret is the constant coefficient).
func InterpolateAtZero(xs, ys []byte) byte {
	return Interpolate(xs, ys, 0)
}
