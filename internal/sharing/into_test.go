package sharing

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// intoSchemes builds one deterministic instance of every scheme for the
// given parameters, keyed by name.
func intoSchemes(t testing.TB) map[string]IntoScheme {
	t.Helper()
	auth, err := NewAuthenticated(NewShamir(rand.New(rand.NewSource(3))), []byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]IntoScheme{
		"shamir":        NewShamir(rand.New(rand.NewSource(1))),
		"xor":           NewXOR(rand.New(rand.NewSource(2))),
		"replication":   Replication{},
		"blakley":       NewBlakley(rand.New(rand.NewSource(4))),
		"authenticated": auth,
		"auto":          NewAuto(rand.New(rand.NewSource(5))),
	}
}

// paramsFor returns a valid (k, m) for each scheme name.
func paramsFor(name string) (k, m int) {
	switch name {
	case "xor":
		return 4, 4
	case "replication":
		return 1, 3
	default:
		return 3, 5
	}
}

// TestSplitIntoRoundTrip checks split → combine through the into path for
// every scheme, reusing buffers across iterations.
func TestSplitIntoRoundTrip(t *testing.T) {
	for name, s := range intoSchemes(t) {
		t.Run(name, func(t *testing.T) {
			k, m := paramsFor(name)
			var shares []Share
			var dst []byte
			for round := 0; round < 3; round++ {
				secret := bytes.Repeat([]byte{byte(round + 1)}, 64+round*13)
				var err error
				shares, err = s.SplitSharesInto(secret, k, m, shares)
				if err != nil {
					t.Fatal(err)
				}
				if len(shares) != m {
					t.Fatalf("got %d shares, want %d", len(shares), m)
				}
				for i, sh := range shares {
					if sh.Index != i {
						t.Fatalf("share %d has index %d", i, sh.Index)
					}
				}
				dst, err = s.CombineInto(dst, shares[m-k:], k, m)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dst, secret) {
					t.Fatalf("round %d: reconstruction mismatch", round)
				}
			}
		})
	}
}

// TestSplitIntoMatchesSplit checks the into path and the allocating path
// produce identical shares from identical randomness.
func TestSplitIntoMatchesSplit(t *testing.T) {
	for _, name := range []string{"shamir", "xor", "replication", "auto"} {
		t.Run(name, func(t *testing.T) {
			k, m := paramsFor(name)
			secret := []byte("identical across both paths")
			a := intoSchemes(t)[name]
			b := intoSchemes(t)[name]
			split, err := a.Split(secret, k, m)
			if err != nil {
				t.Fatal(err)
			}
			into, err := b.SplitSharesInto(secret, k, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range split {
				if split[i].Index != into[i].Index || !bytes.Equal(split[i].Data, into[i].Data) {
					t.Fatalf("share %d differs between Split and SplitSharesInto", i)
				}
			}
		})
	}
}

// TestCombineIntoValidation pins duplicate/short/mismatched share rejection
// on the into path.
func TestCombineIntoValidation(t *testing.T) {
	x := NewXOR(rand.New(rand.NewSource(9)))
	secret := []byte("validate me")
	shares, err := x.SplitSharesInto(secret, 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.CombineInto(nil, shares[:2], 3, 3); err == nil {
		t.Error("too few shares accepted")
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := x.CombineInto(nil, dup, 3, 3); err == nil {
		t.Error("duplicate index accepted")
	}
	bad := []Share{shares[0], shares[1], {Index: 2, Data: []byte{1}}}
	if _, err := x.CombineInto(nil, bad, 3, 3); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestCombineIntoDetectsForgery checks tag verification on the
// authenticated into path.
func TestCombineIntoDetectsForgery(t *testing.T) {
	auth, err := NewAuthenticated(NewXOR(rand.New(rand.NewSource(6))), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("authenticated into path")
	shares, err := auth.SplitSharesInto(secret, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	shares[1].Data[0] ^= 0xff
	if _, err := auth.CombineInto(nil, shares, 2, 2); err == nil {
		t.Error("forged share accepted")
	}
}

// TestIntoFallback checks the package-level helpers fall back to the
// allocating methods for schemes outside this package.
func TestIntoFallback(t *testing.T) {
	s := opaqueScheme{inner: NewXOR(rand.New(rand.NewSource(7)))}
	secret := []byte("fallback")
	shares, err := SplitInto(s, secret, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CombineInto(s, nil, shares, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("fallback roundtrip failed")
	}
}

// opaqueScheme hides the into methods to exercise the fallback branch.
type opaqueScheme struct{ inner *XOR }

// Name implements Scheme.
func (o opaqueScheme) Name() string { return "opaque" }

// Split implements Scheme.
func (o opaqueScheme) Split(secret []byte, k, m int) ([]Share, error) {
	return o.inner.Split(secret, k, m)
}

// Combine implements Scheme.
func (o opaqueScheme) Combine(shares []Share, k, m int) ([]byte, error) {
	return o.inner.Combine(shares, k, m)
}

// TestSteadyStateAllocs pins the zero-allocation steady state of every
// hot-path scheme: replication, XOR, Shamir (coefficient block and share
// headers pooled) and authenticated Shamir (keyed MAC state pooled), with a
// fixed io.Reader so no DRBG refill is in the count.
func TestSteadyStateAllocs(t *testing.T) {
	secret := bytes.Repeat([]byte{0x7e}, 1400)
	auth, err := NewAuthenticated(NewShamir(rand.New(rand.NewSource(4))), []byte("alloc pin key"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		scheme   IntoScheme
		k, m     int
		maxSplit float64
	}{
		{"replication", NewAuto(rand.New(rand.NewSource(1))), 1, 3, 0},
		{"xor", NewAuto(rand.New(rand.NewSource(2))), 3, 3, 0},
		{"shamir", NewAuto(rand.New(rand.NewSource(3))), 3, 5, 0},
		{"authenticated-shamir-3of5", auth, 3, 5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shares, err := tc.scheme.SplitSharesInto(secret, tc.k, tc.m, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				var err error
				shares, err = tc.scheme.SplitSharesInto(secret, tc.k, tc.m, shares)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.maxSplit {
				t.Errorf("split allocates %v times per op, want <= %v", allocs, tc.maxSplit)
			}
			dst := make([]byte, len(secret))
			allocs = testing.AllocsPerRun(100, func() {
				var err error
				dst, err = tc.scheme.CombineInto(dst, shares[:tc.k], tc.k, tc.m)
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("combine allocates %v times per op, want 0", allocs)
			}
		})
	}
}

// TestSchemesConcurrentCallers drives one *Authenticated and one *Shamir
// from eight goroutines at once, as the receiver's reader goroutines do with
// CombineInto: the pooled MAC states, share headers and coefficient blocks
// must stay one per caller. Every round trip must return the caller's own
// bytes and every tampered tag must be refused. Run under -race.
func TestSchemesConcurrentCallers(t *testing.T) {
	const goroutines, rounds = 8, 2000
	plain := NewShamir(nil) // the shared DRBG pool: a concurrency-safe source
	auth, err := NewAuthenticated(plain, []byte("concurrent callers"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			secret := bytes.Repeat([]byte{byte(g + 1)}, 64+g)
			var authShares, plainShares []Share
			var dst []byte
			for r := 0; r < rounds; r++ {
				secret[r%len(secret)] = byte(r)
				var err error
				if authShares, err = auth.SplitSharesInto(secret, 3, 5, authShares); err != nil {
					t.Error(err)
					return
				}
				if dst, err = auth.CombineInto(dst, authShares[r%3:r%3+3], 3, 5); err != nil || !bytes.Equal(dst, secret) {
					t.Errorf("goroutine %d round %d: authenticated round trip: %x, %v", g, r, dst, err)
					return
				}
				forged := authShares[r%5].Data
				forged[len(forged)-1-r%tagLen] ^= 0x40
				if _, err = auth.CombineInto(dst, authShares, 3, 5); !errors.Is(err, ErrShareForged) {
					t.Errorf("goroutine %d round %d: tampered tag: %v, want ErrShareForged", g, r, err)
					return
				}
				if plainShares, err = plain.SplitSharesInto(secret, 3, 5, plainShares); err != nil {
					t.Error(err)
					return
				}
				if dst, err = plain.CombineInto(dst, plainShares[2:], 3, 5); err != nil || !bytes.Equal(dst, secret) {
					t.Errorf("goroutine %d round %d: shamir round trip: %x, %v", g, r, dst, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkSplitSharesInto(b *testing.B) {
	secret := bytes.Repeat([]byte{0x7e}, 1400)
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"replication-1of5", 1, 5},
		{"xor-5of5", 5, 5},
		{"shamir-3of5", 3, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			scheme := NewAuto(rand.New(rand.NewSource(1)))
			shares, err := scheme.SplitSharesInto(secret, tc.k, tc.m, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(secret)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if shares, err = scheme.SplitSharesInto(secret, tc.k, tc.m, shares); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
