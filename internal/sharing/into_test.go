package sharing

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// intoSchemes builds one deterministic instance of every scheme for the
// given parameters, keyed by name.
func intoSchemes(t testing.TB) map[string]Scheme {
	t.Helper()
	auth, err := NewAuthenticated(NewShamir(rand.New(rand.NewSource(3))), []byte("test key"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scheme{
		"shamir":        NewShamir(rand.New(rand.NewSource(1))),
		"xor":           NewXOR(rand.New(rand.NewSource(2))),
		"replication":   Replication{},
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

// TestSplitIntoMatchesSplit checks that a split into fresh storage (nil
// shares) and one into recycled storage — more, longer, dirty share buffers
// left by an earlier split — produce identical shares from identical
// randomness.
func TestSplitIntoMatchesSplit(t *testing.T) {
	for _, name := range []string{"shamir", "xor", "replication", "auto"} {
		t.Run(name, func(t *testing.T) {
			k, m := paramsFor(name)
			secret := []byte("identical across both paths")
			a := intoSchemes(t)[name]
			b := intoSchemes(t)[name]
			fresh, err := a.SplitSharesInto(secret, k, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			recycled := make([]Share, m+2)
			for i := range recycled {
				recycled[i] = Share{Index: 99, Data: bytes.Repeat([]byte{0xee}, 2*len(secret))}
			}
			into, err := b.SplitSharesInto(secret, k, m, recycled)
			if err != nil {
				t.Fatal(err)
			}
			if len(into) != len(fresh) {
				t.Fatalf("%d shares on recycled storage, %d on fresh", len(into), len(fresh))
			}
			for i := range fresh {
				if fresh[i].Index != into[i].Index || !bytes.Equal(fresh[i].Data, into[i].Data) {
					t.Fatalf("share %d differs between fresh and recycled storage", i)
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

// TestIntoFallback checks the package-level helpers serve a scheme defined
// outside this package, as a wrapper such as a timing decorator is.
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
		t.Error("external scheme roundtrip failed")
	}
}

// opaqueScheme is a Scheme outside the package's own types, forwarding to
// an XOR scheme it hides.
type opaqueScheme struct{ inner *XOR }

// Name implements Scheme.
func (o opaqueScheme) Name() string { return "opaque" }

// SplitSharesInto implements Scheme.
func (o opaqueScheme) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	return o.inner.SplitSharesInto(secret, k, m, shares)
}

// CombineInto implements Scheme.
func (o opaqueScheme) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	return o.inner.CombineInto(dst, shares, k, m)
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
		scheme   Scheme
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

// overlaps reports whether the backing arrays of a and b share any byte
// within their capacities.
func overlaps(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
}

// TestCombineIntoPoolingInvariant pins what a receiver that reconstructs
// into one pooled buffer, and wipes it, relies on: CombineInto's result
// never aliases a share's Data, so wiping or reusing it never writes a share
// (the completing share's Data is the transport's datagram); the result is
// no longer than a share; and a dst with a share's length of capacity is
// reused, not replaced.
func TestCombineIntoPoolingInvariant(t *testing.T) {
	auth, err := NewAuthenticated(NewAuto(rand.New(rand.NewSource(7))), []byte("pool key"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme Scheme
		k, m   int
	}{
		{"replication", Replication{}, 1, 3},
		{"xor", NewXOR(rand.New(rand.NewSource(7))), 3, 3},
		{"shamir", NewShamir(rand.New(rand.NewSource(7))), 3, 5},
		{"authenticated-1of3", auth, 1, 3},
		{"authenticated-3of3", auth, 3, 3},
		{"authenticated-3of5", auth, 3, 5},
		{"auto-1of3", NewAuto(rand.New(rand.NewSource(7))), 1, 3},
		{"auto-3of3", NewAuto(rand.New(rand.NewSource(7))), 3, 3},
		{"auto-3of5", NewAuto(rand.New(rand.NewSource(7))), 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secret := bytes.Repeat([]byte("pooled secret "), 20)
			shares, err := tc.scheme.SplitSharesInto(secret, tc.k, tc.m, nil)
			if err != nil {
				t.Fatal(err)
			}
			shares = shares[:tc.k]
			shareLen := len(shares[0].Data)
			for _, dst := range [][]byte{
				nil,
				make([]byte, 0, shareLen),
				bytes.Repeat([]byte{0xEE}, 2*shareLen)[:0],
			} {
				out, err := tc.scheme.CombineInto(dst, shares, tc.k, tc.m)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, secret) {
					t.Fatalf("cap(dst) %d: combined %q, want %q", cap(dst), out, secret)
				}
				if len(out) > shareLen {
					t.Errorf("cap(dst) %d: %d-byte result outgrows the %d-byte shares", cap(dst), len(out), shareLen)
				}
				for _, sh := range shares {
					if overlaps(out, sh.Data) {
						t.Errorf("cap(dst) %d: result aliases share %d", cap(dst), sh.Index)
					}
				}
				if dst != nil && unsafe.SliceData(out) != unsafe.SliceData(dst) {
					t.Errorf("cap(dst) %d: result was not combined into dst", cap(dst))
				}
			}
		})
	}
}
