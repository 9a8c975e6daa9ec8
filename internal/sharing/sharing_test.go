package sharing

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func schemes(t *testing.T) map[string]Scheme {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return map[string]Scheme{
		"shamir": NewShamir(rng),
		"xor":    NewXOR(rng),
		"repl":   Replication{},
		"auto":   NewAuto(rng),
	}
}

// supports reports whether a scheme accepts the (k, m) combination.
func supports(name string, k, m int) bool {
	switch name {
	case "xor":
		return k == m
	case "repl":
		return k == 1
	default:
		return true
	}
}

func TestRoundtripAllSchemes(t *testing.T) {
	secret := []byte("one-time pads are key safeguarding schemes")
	for name, s := range schemes(t) {
		for m := 1; m <= 5; m++ {
			for k := 1; k <= m; k++ {
				if !supports(name, k, m) {
					continue
				}
				shares, err := s.SplitSharesInto(secret, k, m, nil)
				if err != nil {
					t.Fatalf("%s Split(k=%d,m=%d): %v", name, k, m, err)
				}
				if len(shares) != m {
					t.Fatalf("%s: got %d shares, want %d", name, len(shares), m)
				}
				got, err := s.CombineInto(nil, shares[:k], k, m)
				if err != nil {
					t.Fatalf("%s Combine(k=%d,m=%d): %v", name, k, m, err)
				}
				if !bytes.Equal(got, secret) {
					t.Errorf("%s (k=%d,m=%d): Combine = %q", name, k, m, got)
				}
			}
		}
	}
}

func TestXORRequiresAllShares(t *testing.T) {
	x := NewXOR(rand.New(rand.NewSource(1)))
	shares, err := x.SplitSharesInto([]byte("pad"), 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.CombineInto(nil, shares[:2], 3, 3); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("Combine with 2 of 3: got %v, want ErrTooFewShares", err)
	}
}

func TestXORRejectsThresholdBelowM(t *testing.T) {
	x := NewXOR(nil)
	if _, err := x.SplitSharesInto([]byte("s"), 2, 3, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("got %v, want ErrUnsupported", err)
	}
	if _, err := x.CombineInto(nil, nil, 2, 3); !errors.Is(err, ErrUnsupported) {
		t.Errorf("got %v, want ErrUnsupported", err)
	}
}

func TestXORSharesLookRandom(t *testing.T) {
	// The non-final XOR shares are pads; the final share is pad-masked.
	// Verify the final share is not the plaintext for a long secret.
	x := NewXOR(rand.New(rand.NewSource(2)))
	secret := bytes.Repeat([]byte("A"), 1024)
	shares, err := x.SplitSharesInto(secret, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(shares[1].Data, secret) {
		t.Error("masked share equals plaintext")
	}
	if bytes.Equal(shares[0].Data, secret) {
		t.Error("pad share equals plaintext")
	}
}

func TestReplicationRejectsThresholdAboveOne(t *testing.T) {
	r := Replication{}
	if _, err := r.SplitSharesInto([]byte("s"), 2, 3, nil); !errors.Is(err, ErrUnsupported) {
		t.Errorf("got %v, want ErrUnsupported", err)
	}
}

func TestReplicationDetectsDisagreement(t *testing.T) {
	r := Replication{}
	shares, err := r.SplitSharesInto([]byte("abc"), 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	shares[1].Data[0] ^= 0xFF
	if _, err := r.CombineInto(nil, shares, 1, 3); err == nil {
		t.Error("Combine accepted disagreeing replicas")
	}
}

func TestAutoPicksExpectedScheme(t *testing.T) {
	a := NewAuto(rand.New(rand.NewSource(3)))
	cases := []struct {
		k, m int
		want string
	}{
		{1, 1, "replication"},
		{1, 5, "replication"},
		{5, 5, "xor"},
		{2, 2, "xor"},
		{2, 3, "shamir"},
		{3, 5, "shamir"},
	}
	for _, tc := range cases {
		if got := a.pick(tc.k, tc.m).Name(); got != tc.want {
			t.Errorf("pick(%d, %d) = %s, want %s", tc.k, tc.m, got, tc.want)
		}
	}
}

func TestAutoRoundtripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAuto(rng)
	f := func(secret []byte, kSeed, mSeed uint8) bool {
		if len(secret) == 0 {
			secret = []byte{1}
		}
		m := int(mSeed)%6 + 1
		k := int(kSeed)%m + 1
		shares, err := a.SplitSharesInto(secret, k, m, nil)
		if err != nil {
			return false
		}
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		got, err := a.CombineInto(nil, shares[:k], k, m)
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidationErrors(t *testing.T) {
	a := NewAuto(nil)
	if _, err := a.SplitSharesInto(nil, 1, 1, nil); !errors.Is(err, ErrEmptySecret) {
		t.Errorf("empty secret: got %v", err)
	}
	if _, err := a.SplitSharesInto([]byte("x"), 0, 1, nil); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("k=0: got %v", err)
	}
	if _, err := a.SplitSharesInto([]byte("x"), 3, 2, nil); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("k>m: got %v", err)
	}
	if _, err := a.CombineInto(nil, nil, 0, 0); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("combine k=0: got %v", err)
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	a := NewAuto(rand.New(rand.NewSource(5)))
	shares, err := a.SplitSharesInto([]byte("dup"), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Share{shares[0], {Index: shares[0].Index, Data: shares[1].Data}}
	if _, err := a.CombineInto(nil, bad, 2, 3); !errors.Is(err, ErrDuplicateIndex) {
		t.Errorf("got %v, want ErrDuplicateIndex", err)
	}
}

func TestShareLengthsEqualAcrossShares(t *testing.T) {
	// The model assumes H(Y) = H(X): all shares the same length.
	for name, s := range schemes(t) {
		for _, km := range [][2]int{{1, 3}, {3, 3}, {2, 4}} {
			k, m := km[0], km[1]
			if !supports(name, k, m) {
				continue
			}
			shares, err := s.SplitSharesInto([]byte("equal length"), k, m, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, sh := range shares[1:] {
				if len(sh.Data) != len(shares[0].Data) {
					t.Errorf("%s (k=%d,m=%d): unequal share lengths", name, k, m)
				}
			}
		}
	}
}

func BenchmarkAutoSplitXOR5of5(b *testing.B) {
	a := NewAuto(rand.New(rand.NewSource(1)))
	secret := bytes.Repeat([]byte{0xCC}, 1400)
	b.SetBytes(int64(len(secret)))
	for i := 0; i < b.N; i++ {
		if _, err := a.SplitSharesInto(secret, 5, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirSplit5of5(b *testing.B) {
	s := NewShamir(rand.New(rand.NewSource(1)))
	secret := bytes.Repeat([]byte{0xCC}, 1400)
	b.SetBytes(int64(len(secret)))
	for i := 0; i < b.N; i++ {
		if _, err := s.SplitSharesInto(secret, 5, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}
