package shamir

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitCombineRoundtrip(t *testing.T) {
	cases := []struct {
		name   string
		secret []byte
		k, m   int
	}{
		{"1-of-1", []byte("x"), 1, 1},
		{"1-of-5 replication-like", []byte("hello"), 1, 5},
		{"2-of-3", []byte("attack at dawn"), 2, 3},
		{"3-of-5", []byte("the quick brown fox"), 3, 5},
		{"5-of-5", bytes.Repeat([]byte{0xAB}, 64), 5, 5},
		{"binary secret", []byte{0, 1, 2, 255, 254, 0}, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shares, err := Split(tc.secret, tc.k, tc.m)
			if err != nil {
				t.Fatalf("Split: %v", err)
			}
			if len(shares) != tc.m {
				t.Fatalf("got %d shares, want %d", len(shares), tc.m)
			}
			got, err := Combine(shares[:tc.k])
			if err != nil {
				t.Fatalf("Combine: %v", err)
			}
			if !bytes.Equal(got, tc.secret) {
				t.Errorf("Combine = %q, want %q", got, tc.secret)
			}
		})
	}
}

// TestAnyKOfMReconstructs exhaustively checks every k-subset of shares for a
// small parameter grid.
func TestAnyKOfMReconstructs(t *testing.T) {
	secret := []byte("multichannel secret sharing")
	for m := 1; m <= 6; m++ {
		for k := 1; k <= m; k++ {
			shares, err := Split(secret, k, m)
			if err != nil {
				t.Fatalf("Split(k=%d, m=%d): %v", k, m, err)
			}
			forEachSubset(len(shares), k, func(idx []int) {
				sub := make([]Share, len(idx))
				for i, j := range idx {
					sub[i] = shares[j]
				}
				got, err := Combine(sub)
				if err != nil {
					t.Fatalf("Combine(k=%d, m=%d, subset=%v): %v", k, m, idx, err)
				}
				if !bytes.Equal(got, secret) {
					t.Fatalf("subset %v of (k=%d, m=%d) reconstructed %q", idx, k, m, got)
				}
			})
		}
	}
}

// forEachSubset invokes fn with every size-k subset of {0..n-1}.
func forEachSubset(n, k int, fn func([]int)) {
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(idx)
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}

func TestMoreThanKSharesAlsoReconstruct(t *testing.T) {
	secret := []byte("redundant")
	shares, err := Split(secret, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Combine(shares) // all 5
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Errorf("Combine(all) = %q, want %q", got, secret)
	}
}

// TestSecrecyOfInsufficientShares verifies the information-theoretic secrecy
// property statistically: with a fixed set of k-1 share coordinates, the
// observed share bytes are (close to) uniform regardless of the secret.
func TestSecrecyOfInsufficientShares(t *testing.T) {
	const trials = 20000
	sp := NewSplitter(rand.New(rand.NewSource(1)))
	counts := make([]int, 256)
	for i := 0; i < trials; i++ {
		shares, err := sp.Split([]byte{0x42}, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		counts[shares[0].Y[0]]++
	}
	// Chi-squared uniformity check, 255 dof. 99.9th percentile ~ 330.
	expected := float64(trials) / 256
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 330 {
		t.Errorf("share byte distribution not uniform: chi2 = %.1f (> 330)", chi2)
	}
}

// TestSingleShareIndependentOfSecret checks that for k=2, one share's
// distribution is identical for two different secrets (same randomness gives
// different shares, but marginal distribution matches).
func TestSingleShareIndependentOfSecret(t *testing.T) {
	const trials = 8000
	countsA := make([]int, 256)
	countsB := make([]int, 256)
	spA := NewSplitter(rand.New(rand.NewSource(7)))
	spB := NewSplitter(rand.New(rand.NewSource(8)))
	for i := 0; i < trials; i++ {
		sa, err := spA.Split([]byte{0x00}, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := spB.Split([]byte{0xFF}, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		countsA[sa[1].Y[0]]++
		countsB[sb[1].Y[0]]++
	}
	// Two-sample chi-squared; both should be uniform so the statistic over
	// the pooled comparison should be modest. 99.9th percentile ~ 330.
	var chi2 float64
	for i := range countsA {
		a, b := float64(countsA[i]), float64(countsB[i])
		if a+b == 0 {
			continue
		}
		d := a - b
		chi2 += d * d / (a + b)
	}
	if chi2 > 330 {
		t.Errorf("share distributions differ across secrets: chi2 = %.1f", chi2)
	}
}

func TestSplitParameterValidation(t *testing.T) {
	cases := []struct {
		name   string
		secret []byte
		k, m   int
		want   error
	}{
		{"k zero", []byte("s"), 0, 3, ErrInvalidParams},
		{"k negative", []byte("s"), -1, 3, ErrInvalidParams},
		{"k > m", []byte("s"), 4, 3, ErrInvalidParams},
		{"m too large", []byte("s"), 1, 256, ErrInvalidParams},
		{"empty secret", nil, 1, 1, ErrEmptySecret},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Split(tc.secret, tc.k, tc.m)
			if !errors.Is(err, tc.want) {
				t.Errorf("Split error = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestCombineValidation(t *testing.T) {
	shares, err := Split([]byte("valid"), 2, 3)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("no shares", func(t *testing.T) {
		if _, err := Combine(nil); !errors.Is(err, ErrTooFewShares) {
			t.Errorf("got %v, want ErrTooFewShares", err)
		}
	})
	t.Run("duplicate x", func(t *testing.T) {
		dup := []Share{shares[0], shares[0]}
		if _, err := Combine(dup); !errors.Is(err, ErrDuplicateShare) {
			t.Errorf("got %v, want ErrDuplicateShare", err)
		}
	})
	t.Run("length mismatch", func(t *testing.T) {
		bad := []Share{shares[0], {X: shares[1].X, Y: shares[1].Y[:2]}}
		if _, err := Combine(bad); !errors.Is(err, ErrShareMismatch) {
			t.Errorf("got %v, want ErrShareMismatch", err)
		}
	})
	t.Run("zero x", func(t *testing.T) {
		bad := []Share{{X: 0, Y: []byte{1, 2}}}
		if _, err := Combine(bad); !errors.Is(err, ErrZeroCoordinate) {
			t.Errorf("got %v, want ErrZeroCoordinate", err)
		}
	})
	t.Run("empty Y", func(t *testing.T) {
		bad := []Share{{X: 1, Y: nil}}
		if _, err := Combine(bad); !errors.Is(err, ErrMalformedShare) {
			t.Errorf("got %v, want ErrMalformedShare", err)
		}
	})
}

// TestQuickRoundtrip property-tests split/combine over random secrets and
// random valid (k, m).
func TestQuickRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sp := NewSplitter(rng)
	f := func(secret []byte, kSeed, mSeed uint8) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		m := int(mSeed)%8 + 1
		k := int(kSeed)%m + 1
		shares, err := sp.Split(secret, k, m)
		if err != nil {
			return false
		}
		// Random k-subset: shuffle then take k.
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		got, err := Combine(shares[:k])
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicWithSeededRand(t *testing.T) {
	s1, err := NewSplitter(rand.New(rand.NewSource(5))).Split([]byte("det"), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSplitter(rand.New(rand.NewSource(5))).Split([]byte("det"), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i].X != s2[i].X || !bytes.Equal(s1[i].Y, s2[i].Y) {
			t.Fatalf("share %d differs across identically seeded splitters", i)
		}
	}
}

func BenchmarkSplit3of5_1400B(b *testing.B) {
	secret := bytes.Repeat([]byte{0x5a}, 1400)
	sp := NewSplitter(rand.New(rand.NewSource(1)))
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.Split(secret, 3, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine3of5_1400B(b *testing.B) {
	secret := bytes.Repeat([]byte{0x5a}, 1400)
	shares, err := NewSplitter(rand.New(rand.NewSource(1))).Split(secret, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(secret)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Combine(shares[:3]); err != nil {
			b.Fatal(err)
		}
	}
}
