package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The kernel differential wall: every compiled kernel (portable, and the
// platform vector kernels when the machine has them) is pinned against the
// table-free shift-and-add reference for every multiplier, at lengths and
// alignments chosen to hit each kernel's edges — the 32-byte vector groups,
// the portable kernel's 8-byte words, and the zero-padded remainder word
// that finishes every ragged tail — through sub-slice offsets that deny the
// kernels any alignment guarantees.

// diffLengths crosses the 8-byte word stride and the 32-byte vector stride
// boundaries on both sides, plus MTU-order sizes the protocol actually
// splits.
var diffLengths = []int{1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 255, 256, 1000, 1400}

// withKernels runs f once per available kernel with that kernel forced.
func withKernels(t *testing.T, f func(t *testing.T, name string)) {
	t.Helper()
	for _, name := range Kernels() {
		restore, err := ForceKernel(name)
		if err != nil {
			t.Fatalf("ForceKernel(%q): %v", name, err)
		}
		ok := t.Run(name, func(t *testing.T) { f(t, name) })
		restore()
		if !ok {
			return
		}
	}
}

func TestKernelsMatchReferenceAllMultipliers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const off = 5 // deliberately misaligned backing windows
	src := randomBytes(rng, off+diffLengths[len(diffLengths)-1])
	withKernels(t, func(t *testing.T, name string) {
		for c := 0; c < 256; c++ {
			n := diffLengths[c%len(diffLengths)]
			s := src[off : off+n]
			want := make([]byte, n)
			for i := range want {
				want[i] = refMul(byte(c), s[i])
			}

			dst := make([]byte, off+n)
			MulSlice(dst[off:], s, byte(c))
			if !bytes.Equal(dst[off:], want) {
				t.Fatalf("MulSlice c=%#02x n=%d diverges from reference", c, n)
			}

			acc := make([]byte, off+n)
			copy(acc[off:], src[:n])
			wantAcc := make([]byte, n)
			for i := range wantAcc {
				wantAcc[i] = src[i] ^ want[i]
			}
			AddMulSlice(acc[off:], s, byte(c))
			if !bytes.Equal(acc[off:], wantAcc) {
				t.Fatalf("AddMulSlice c=%#02x n=%d diverges from reference", c, n)
			}
		}
	})
}

func TestKernelsXorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	withKernels(t, func(t *testing.T, name string) {
		for _, n := range diffLengths {
			for off := 0; off < 4; off++ {
				dst := randomBytes(rng, off+n)[off:]
				src := randomBytes(rng, off+n)[off:]
				want := make([]byte, n)
				for i := range want {
					want[i] = dst[i] ^ src[i]
				}
				AddSlice(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("AddSlice n=%d off=%d diverges from reference", n, off)
				}
			}
		}
	})
}

// refHorner evaluates byte i of the blocks' polynomials at x with the
// table-free reference multiply, highest-degree block first.
func refHorner(blocks [][]byte, x byte, i int) byte {
	acc := blocks[0][i]
	for _, c := range blocks[1:] {
		acc = refMul(acc, x) ^ c[i]
	}
	return acc
}

func TestKernelsHornerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	t.Logf("selected kernel %s; available %v", KernelName(), Kernels())
	withKernels(t, func(t *testing.T, name string) {
		for nb := 1; nb <= 8; nb++ {
			for _, n := range diffLengths {
				for off := 0; off < 8; off++ {
					blocks := make([][]byte, nb)
					for b := range blocks {
						blocks[b] = randomBytes(rng, off+n)[off:]
					}
					x := byte(rng.Intn(255) + 1)

					want := make([]byte, n)
					for i := range want {
						want[i] = refHorner(blocks, x, i)
					}

					acc := make([]byte, off+n)[off:]
					HornerBlock(acc, x, blocks, 0, n)
					if !bytes.Equal(acc, want) {
						t.Fatalf("HornerBlock nb=%d x=%#02x n=%d off=%d diverges from reference", nb, x, n, off)
					}

					// Tiled evaluation over sub-ranges must agree with the
					// full-range pass: this is the window walk the splitter does.
					tiled := make([]byte, off+n)[off:]
					for lo := 0; lo < n; lo += 13 {
						hi := lo + 13
						if hi > n {
							hi = n
						}
						HornerBlock(tiled, x, blocks, lo, hi)
					}
					if !bytes.Equal(tiled, want) {
						t.Fatalf("tiled HornerBlock nb=%d x=%#02x n=%d off=%d diverges", nb, x, n, off)
					}

					// A window that starts and ends off a 32-byte boundary
					// leaves the bytes around it untouched.
					lo, hi := n/5|1, n-n/7
					if hi <= lo {
						continue
					}
					win := randomBytes(rng, n)
					outside := append([]byte(nil), win...)
					HornerBlock(win, x, blocks, lo, hi)
					if !bytes.Equal(win[lo:hi], want[lo:hi]) {
						t.Fatalf("HornerBlock nb=%d x=%#02x window [%d, %d) diverges", nb, x, lo, hi)
					}
					if !bytes.Equal(win[:lo], outside[:lo]) || !bytes.Equal(win[hi:], outside[hi:]) {
						t.Fatalf("HornerBlock nb=%d window [%d, %d) wrote outside it", nb, lo, hi)
					}
				}
			}
		}
	})
}

// FuzzKernels drives every slice entry point through every available kernel
// with a fuzzed multiplier, 1–8 coefficient blocks and a [lo, hi) window
// whose edges fall anywhere relative to the 8- and 32-byte strides, against
// the table-free reference.
func FuzzKernels(f *testing.F) {
	f.Add(byte(0x53), uint8(3), uint16(0), uint16(1400), int64(1))
	f.Add(byte(1), uint8(1), uint16(5), uint16(37), int64(2))
	f.Add(byte(0), uint8(8), uint16(31), uint16(33), int64(3))
	f.Add(byte(0xff), uint8(5), uint16(100), uint16(100), int64(4))
	f.Fuzz(func(t *testing.T, c byte, nbRaw uint8, loRaw, hiRaw uint16, seed int64) {
		const maxLen = 2048
		nb := int(nbRaw)%8 + 1
		lo, hi := int(loRaw)%maxLen, int(hiRaw)%maxLen
		if lo > hi {
			lo, hi = hi, lo
		}
		rng := rand.New(rand.NewSource(seed))
		blocks := make([][]byte, nb)
		for b := range blocks {
			blocks[b] = randomBytes(rng, hi)
		}
		src, init := blocks[0][lo:hi], randomBytes(rng, hi-lo)

		mul, addMul, mulAdd := make([]byte, hi-lo), make([]byte, hi-lo), make([]byte, hi-lo)
		horner := make([]byte, hi)
		for i := range mul {
			mul[i] = refMul(c, src[i])
			addMul[i] = init[i] ^ mul[i]
			mulAdd[i] = refMul(init[i], c) ^ src[i]
		}
		for i := lo; i < hi; i++ {
			horner[i] = refHorner(blocks, c, i)
		}

		for _, name := range Kernels() {
			restore, err := ForceKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, hi-lo)
			MulSlice(got, src, c)
			if !bytes.Equal(got, mul) {
				t.Errorf("%s MulSlice c=%#02x len=%d diverges", name, c, hi-lo)
			}
			copy(got, init)
			AddMulSlice(got, src, c)
			if !bytes.Equal(got, addMul) {
				t.Errorf("%s AddMulSlice c=%#02x len=%d diverges", name, c, hi-lo)
			}
			copy(got, init)
			MulAddSlice(got, c, src)
			if !bytes.Equal(got, mulAdd) {
				t.Errorf("%s MulAddSlice x=%#02x len=%d diverges", name, c, hi-lo)
			}
			dst := make([]byte, hi)
			HornerBlock(dst, c, blocks, lo, hi)
			if !bytes.Equal(dst, horner) {
				t.Errorf("%s HornerBlock x=%#02x nb=%d [%d, %d) diverges", name, c, nb, lo, hi)
			}
			restore()
		}
	})
}

func TestKernelsCrossAgree(t *testing.T) {
	// Belt over the reference braces: all kernels on the same inputs,
	// byte-identical outputs, including the fused MulAddSlice entry point.
	kernels := Kernels()
	if len(kernels) < 2 {
		t.Skipf("only %v compiled in", kernels)
	}
	rng := rand.New(rand.NewSource(44))
	for _, n := range diffLengths {
		src := randomBytes(rng, n)
		add := randomBytes(rng, n)
		c := byte(rng.Intn(254) + 2)
		type out struct{ mul, mulAdd []byte }
		results := make(map[string]out, len(kernels))
		for _, name := range kernels {
			restore, err := ForceKernel(name)
			if err != nil {
				t.Fatal(err)
			}
			mul := make([]byte, n)
			MulSlice(mul, src, c)
			mulAdd := make([]byte, n)
			copy(mulAdd, add)
			MulAddSlice(mulAdd, c, src)
			restore()
			results[name] = out{mul, mulAdd}
		}
		base := results[kernels[0]]
		for _, name := range kernels[1:] {
			if !bytes.Equal(results[name].mul, base.mul) {
				t.Fatalf("MulSlice: %s and %s disagree at n=%d c=%#02x", kernels[0], name, n, c)
			}
			if !bytes.Equal(results[name].mulAdd, base.mulAdd) {
				t.Fatalf("MulAddSlice: %s and %s disagree at n=%d c=%#02x", kernels[0], name, n, c)
			}
		}
	}
}

func TestForceKernelErrors(t *testing.T) {
	if _, err := ForceKernel("no-such-kernel"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	// Names of removed kernels must fail loudly, not fall back silently.
	for _, gone := range []string{"scalar", "word"} {
		if _, err := ForceKernel(gone); err == nil {
			t.Fatalf("removed kernel %q accepted", gone)
		}
	}
	active := KernelName()
	restore, err := ForceKernel("portable")
	if err != nil {
		t.Fatal(err)
	}
	if KernelName() != "portable" {
		t.Fatalf("forced portable, active %s", KernelName())
	}
	restore()
	if KernelName() != active {
		t.Fatalf("restore landed on %s, want %s", KernelName(), active)
	}
}

func TestAllKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dst := randomBytes(rng, 1400)
	src := randomBytes(rng, 1400)
	withKernels(t, func(t *testing.T, name string) {
		for what, f := range map[string]func(){
			"MulSlice":    func() { MulSlice(dst, src, 3) },
			"AddMulSlice": func() { AddMulSlice(dst, src, 3) },
			"MulAddSlice": func() { MulAddSlice(dst, 3, src) },
			"AddSlice":    func() { AddSlice(dst, src) },
		} {
			if avg := testing.AllocsPerRun(100, f); avg != 0 {
				t.Fatalf("%s allocates %.1f times per call on the %s kernel", what, avg, name)
			}
		}
	})
}

// TestPortableKernelColdMultiplierNoAlloc pins that a multiplier's first
// use costs nothing: no kernel builds per-multiplier state, so the very
// first call with each of 2..255 allocates no more than any later one.
func TestPortableKernelColdMultiplierNoAlloc(t *testing.T) {
	restore, err := ForceKernel("portable")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	rng := rand.New(rand.NewSource(47))
	dst := randomBytes(rng, 1400)
	src := randomBytes(rng, 1400)
	for c := 2; c < 256; c++ {
		x := byte(c)
		for _, op := range []struct {
			what string
			f    func()
		}{
			{"AddMulSlice", func() { AddMulSlice(dst, src, x) }},
			{"MulSlice", func() { MulSlice(dst, src, x) }},
			{"MulAddSlice", func() { MulAddSlice(dst, x, src) }},
		} {
			// AllocsPerRun makes one uncounted warm-up call first; skip the
			// work in that one so the counted call is the multiplier's
			// first use of this entry point.
			warmedUp := false
			if avg := testing.AllocsPerRun(1, func() {
				if warmedUp {
					op.f()
				}
				warmedUp = true
			}); avg != 0 {
				t.Fatalf("first %s with c=%#02x allocates %.1f times", op.what, x, avg)
			}
		}
	}
}

func BenchmarkKernelPass(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i * 31)
	}
	for _, name := range Kernels() {
		restore, err := ForceKernel(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("addmul-4KiB/%s", name), func(b *testing.B) {
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				AddMulSlice(dst, src, 7)
			}
		})
		b.Run(fmt.Sprintf("xor-4KiB/%s", name), func(b *testing.B) {
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				AddSlice(dst, src)
			}
		})
		restore()
	}
}
