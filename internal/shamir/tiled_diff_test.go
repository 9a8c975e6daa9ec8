package shamir

// Differential tests for the cache-tiled split path. The reference below
// evaluates each secret byte's polynomial independently with the scalar
// gf256.EvalPoly (log/exp arithmetic, byte-major) — a completely separate
// code path from the tiled slice kernels — and the tests require the
// production SplitInto to be byte-for-byte identical to it for every (k, m)
// up to 8-of-8 and for lengths straddling tile boundaries with odd tails.
// Bit-identity matters beyond correctness: leakage analyses of Shamir
// sharing are stated for the reference scheme exactly, so the fast path must
// not be "equivalent", it must be the same function of (secret, randomness).

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"remicss/internal/drbg"
	"remicss/internal/gf256"
)

// referenceSplit computes shares byte-by-byte with scalar arithmetic, given
// the exact random coefficient block SplitInto would draw: coefficient j of
// the polynomial for secret byte b is random[(j-1)*L+b].
func referenceSplit(secret []byte, k, m int, random []byte) [][]byte {
	L := len(secret)
	out := make([][]byte, m)
	coeffs := make([]byte, k)
	for i := 0; i < m; i++ {
		x := byte(i + 1)
		y := make([]byte, L)
		for b := 0; b < L; b++ {
			coeffs[0] = secret[b]
			for j := 1; j < k; j++ {
				coeffs[j] = random[(j-1)*L+b]
			}
			y[b] = gf256.EvalPoly(coeffs, x)
		}
		out[i] = y
	}
	return out
}

// withKernels runs f once per compiled gf256 kernel with that kernel
// forced, so the split-level differentials below pin the scalar, word, and
// vector paths alike — whichever one init happened to select.
func withKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, name := range gf256.Kernels() {
		restore, err := gf256.ForceKernel(name)
		if err != nil {
			t.Fatalf("ForceKernel(%q): %v", name, err)
		}
		ok := t.Run(name, f)
		restore()
		if !ok {
			return
		}
	}
}

func TestTiledSplitMatchesScalarReference(t *testing.T) {
	lengths := []int{
		1, 2, 7, 31, 333, // sub-tile, odd tails
		splitTileBytes - 1, splitTileBytes, splitTileBytes + 1, // tile boundary
		3*splitTileBytes + 13, // multi-tile with ragged tail
	}
	withKernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for _, L := range lengths {
			secret := make([]byte, L)
			rng.Read(secret)
			for m := 1; m <= 8; m++ {
				for k := 1; k <= m; k++ {
					random := make([]byte, (k-1)*L)
					rng.Read(random)
					shares, err := NewSplitter(bytes.NewReader(random)).SplitInto(secret, k, m, nil)
					if err != nil {
						t.Fatalf("L=%d k=%d m=%d: %v", L, k, m, err)
					}
					want := referenceSplit(secret, k, m, random)
					for i := range shares {
						if shares[i].X != byte(i+1) {
							t.Fatalf("L=%d k=%d m=%d: share %d has X=%d", L, k, m, i, shares[i].X)
						}
						if !bytes.Equal(shares[i].Y, want[i]) {
							t.Fatalf("L=%d k=%d m=%d: tiled share %d diverges from scalar reference",
								L, k, m, i)
						}
					}
					got, err := CombineInto(nil, shares[:k])
					if err != nil {
						t.Fatalf("L=%d k=%d m=%d combine: %v", L, k, m, err)
					}
					if !bytes.Equal(got, secret) {
						t.Fatalf("L=%d k=%d m=%d: combine of first k shares != secret", L, k, m)
					}
				}
			}
		}
	})
}

// TestSplitViaDRBGMatchesReference drives the production configuration end
// to end: coefficients drawn from a deterministic DRBG (the same generator
// family the shared pool serves), split through whichever kernel is under
// test, checked against the byte-major scalar reference fed the identical
// keystream.
func TestSplitViaDRBGMatchesReference(t *testing.T) {
	withKernels(t, func(t *testing.T) {
		const L, k, m = 3*splitTileBytes + 13, 3, 5
		secret := make([]byte, L)
		rand.New(rand.NewSource(9)).Read(secret)

		random := make([]byte, (k-1)*L)
		if _, err := io.ReadFull(drbg.NewDeterministic([]byte("diff")), random); err != nil {
			t.Fatal(err)
		}
		shares, err := NewSplitter(drbg.NewDeterministic([]byte("diff"))).SplitInto(secret, k, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSplit(secret, k, m, random)
		for i := range shares {
			if !bytes.Equal(shares[i].Y, want[i]) {
				t.Fatalf("DRBG-fed share %d diverges from scalar reference", i)
			}
		}
	})
}

// TestTiledSplitReusedBuffers re-splits through recycled share storage (the
// hot-path usage) and checks the tiled result still matches the reference —
// stale bytes in reused Y buffers must be fully overwritten in every tile.
func TestTiledSplitReusedBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const L = 2*splitTileBytes + 5
	var shares []Share
	for round := 0; round < 3; round++ {
		k, m := 3+round, 5+round
		secret := make([]byte, L)
		rng.Read(secret)
		random := make([]byte, (k-1)*L)
		rng.Read(random)
		var err error
		shares, err = NewSplitter(bytes.NewReader(random)).SplitInto(secret, k, m, shares)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := referenceSplit(secret, k, m, random)
		for i := range shares {
			if !bytes.Equal(shares[i].Y, want[i]) {
				t.Fatalf("round %d: reused-buffer share %d diverges from reference", round, i)
			}
		}
	}
}
