package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// TestMulSlice checks MulSlice against scalar Mul over random inputs,
// including the in-place case and the c=0 and c=1 fast paths.
func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 1400} {
		for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
			src := randomBytes(rng, n)
			dst := make([]byte, n)
			MulSlice(dst, src, c)
			for i := range src {
				if want := Mul(c, src[i]); dst[i] != want {
					t.Fatalf("n=%d c=%d: dst[%d] = %d, want %d", n, c, i, dst[i], want)
				}
			}
			// In place.
			inPlace := append([]byte(nil), src...)
			MulSlice(inPlace, inPlace, c)
			if !bytes.Equal(inPlace, dst) {
				t.Fatalf("n=%d c=%d: in-place MulSlice differs", n, c)
			}
		}
	}
}

// TestAddMulSlice checks the scaled accumulate against scalar arithmetic.
func TestAddMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 13, 1400} {
		for _, c := range []byte{0, 1, 2, 0x9c} {
			src := randomBytes(rng, n)
			dst := randomBytes(rng, n)
			want := make([]byte, n)
			for i := range want {
				want[i] = Add(dst[i], Mul(c, src[i]))
			}
			AddMulSlice(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("n=%d c=%d: AddMulSlice mismatch", n, c)
			}
		}
	}
}

// TestMulAddSlice checks that iterated block Horner steps agree with the
// scalar EvalPoly on every byte position.
func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, k = 257, 5
	coeffs := make([][]byte, k) // coeffs[j][i]: coefficient j of polynomial i
	for j := range coeffs {
		coeffs[j] = randomBytes(rng, n)
	}
	for _, x := range []byte{0, 1, 2, 0x1b, 0xfe} {
		acc := make([]byte, n)
		copy(acc, coeffs[k-1])
		for j := k - 2; j >= 0; j-- {
			MulAddSlice(acc, x, coeffs[j])
		}
		scalar := make([]byte, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				scalar[j] = coeffs[j][i]
			}
			if want := EvalPoly(scalar, x); acc[i] != want {
				t.Fatalf("x=%d: byte %d = %d, want %d", x, i, acc[i], want)
			}
		}
	}
}

// TestAddSlice checks the word-wise XOR kernel across length classes that
// exercise both the unrolled body and the tail loop.
func TestAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1400} {
		src := randomBytes(rng, n)
		dst := randomBytes(rng, n)
		want := make([]byte, n)
		for i := range want {
			want[i] = dst[i] ^ src[i]
		}
		AddSlice(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: AddSlice mismatch", n)
		}
	}
}

// TestKernelLengthMismatchPanics pins the contract that mismatched slice
// lengths are a caller bug.
func TestKernelLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MulSlice":    func() { MulSlice(make([]byte, 2), make([]byte, 3), 1) },
		"AddMulSlice": func() { AddMulSlice(make([]byte, 2), make([]byte, 3), 1) },
		"MulAddSlice": func() { MulAddSlice(make([]byte, 2), 1, make([]byte, 3)) },
		"AddSlice":    func() { AddSlice(make([]byte, 2), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// TestKernelsDoNotAllocate pins the kernels at zero allocations.
func TestKernelsDoNotAllocate(t *testing.T) {
	src := randomBytes(rand.New(rand.NewSource(5)), 1400)
	dst := make([]byte, len(src))
	if n := testing.AllocsPerRun(100, func() {
		MulSlice(dst, src, 0x53)
		AddMulSlice(dst, src, 0x9c)
		MulAddSlice(dst, 0x1b, src)
		AddSlice(dst, src)
	}); n != 0 {
		t.Fatalf("kernels allocate %v times per run, want 0", n)
	}
}

func benchKernel(b *testing.B, f func(dst, src []byte)) {
	src := randomBytes(rand.New(rand.NewSource(1)), 1400)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, src)
	}
}

func BenchmarkMulSlice1400B(b *testing.B) {
	benchKernel(b, func(dst, src []byte) { MulSlice(dst, src, 0x53) })
}

func BenchmarkAddMulSlice1400B(b *testing.B) {
	benchKernel(b, func(dst, src []byte) { AddMulSlice(dst, src, 0x53) })
}

func BenchmarkMulAddSlice1400B(b *testing.B) {
	benchKernel(b, func(dst, src []byte) { MulAddSlice(dst, 0x53, src) })
}

func BenchmarkAddSlice1400B(b *testing.B) {
	benchKernel(b, func(dst, src []byte) { AddSlice(dst, src) })
}

// BenchmarkScalarEval1400B is the per-byte baseline the block kernels
// replace: one EvalPoly per byte, as the pre-kernel Shamir split did.
func BenchmarkScalarEval1400B(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	secret := randomBytes(rng, 1400)
	coeffs := make([]byte, 3)
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink byte
		for _, s := range secret {
			coeffs[0] = s
			sink ^= EvalPoly(coeffs, 0x53)
		}
		_ = sink
	}
}
