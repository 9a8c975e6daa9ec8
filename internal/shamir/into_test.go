package shamir

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSplitIntoMatchesSplit checks that SplitInto with a fresh slice and
// Split agree byte for byte under the same randomness stream.
func TestSplitIntoMatchesSplit(t *testing.T) {
	secret := []byte("block-wise versus wrapper")
	a, err := NewSplitter(rand.New(rand.NewSource(11))).Split(secret, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSplitter(rand.New(rand.NewSource(11))).SplitInto(secret, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("share counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].X != b[i].X || !bytes.Equal(a[i].Y, b[i].Y) {
			t.Fatalf("share %d differs between Split and SplitInto", i)
		}
	}
}

// TestSplitIntoReusesBuffers checks that cycling one share slice through
// repeated splits reuses the Y backing arrays and still reconstructs.
func TestSplitIntoReusesBuffers(t *testing.T) {
	sp := NewSplitter(rand.New(rand.NewSource(12)))
	secret := bytes.Repeat([]byte{0xa5}, 512)
	shares, err := sp.SplitInto(secret, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstY := &shares[0].Y[0]
	shares, err = sp.SplitInto(secret, 3, 5, shares)
	if err != nil {
		t.Fatal(err)
	}
	if &shares[0].Y[0] != firstY {
		t.Error("SplitInto did not reuse the Y buffer of share 0")
	}
	got, err := Combine(shares[1:4])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("reconstruction after buffer reuse failed")
	}

	// Shrinking the secret must shrink the shares, not leave stale bytes.
	small := []byte{1, 2, 3}
	shares, err = sp.SplitInto(small, 2, 3, shares)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shares {
		if len(s.Y) != len(small) {
			t.Fatalf("share %d has %d bytes after shrink, want %d", i, len(s.Y), len(small))
		}
	}
	got, err = Combine(shares[:2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, small) {
		t.Error("reconstruction after shrink failed")
	}
}

// TestCombineIntoMatchesCombine checks the block-wise Lagrange accumulation
// against the wrapper across thresholds and share subsets.
func TestCombineIntoMatchesCombine(t *testing.T) {
	f := func(seed int64, kSeed, mSeed uint8, secret []byte) bool {
		if len(secret) == 0 {
			secret = []byte{0}
		}
		if len(secret) > 1<<10 {
			secret = secret[:1<<10]
		}
		m := int(mSeed)%7 + 1
		k := int(kSeed)%m + 1
		shares, err := NewSplitter(rand.New(rand.NewSource(seed))).Split(secret, k, m)
		if err != nil {
			return false
		}
		dst := make([]byte, 0, len(secret))
		got, err := CombineInto(dst, shares[m-k:])
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCombineIntoRejectsBadShares pins the validation paths of the into
// variant (duplicate x, zero x, length mismatch, empty, oversized).
func TestCombineIntoRejectsBadShares(t *testing.T) {
	good := Share{X: 1, Y: []byte{1, 2}}
	cases := map[string][]Share{
		"empty":     nil,
		"zero x":    {{X: 0, Y: []byte{1, 2}}},
		"duplicate": {good, {X: 1, Y: []byte{3, 4}}},
		"mismatch":  {good, {X: 2, Y: []byte{3}}},
		"empty Y":   {{X: 1, Y: nil}},
		"oversized": make([]Share, MaxShares+1),
	}
	for name, shares := range cases {
		if name == "oversized" {
			for i := range shares {
				shares[i] = Share{X: byte(i%255 + 1), Y: []byte{1, 2}}
			}
		}
		if _, err := CombineInto(nil, shares); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestSplitIntoAllocs pins the steady-state allocation count of the into
// path: none — the random coefficient block is the splitter's own scratch.
func TestSplitIntoAllocs(t *testing.T) {
	sp := NewSplitter(rand.New(rand.NewSource(13)))
	secret := bytes.Repeat([]byte{0x3c}, 1400)
	shares, err := sp.SplitInto(secret, 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		shares, err = sp.SplitInto(secret, 3, 5, shares)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SplitInto allocates %v times per op, want 0", allocs)
	}

	dst := make([]byte, len(secret))
	allocs = testing.AllocsPerRun(100, func() {
		var err error
		dst, err = CombineInto(dst, shares[:3])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CombineInto allocates %v times per op, want 0", allocs)
	}
}

// TestSplitScratchZeroedAtRest checks that the pooled coefficient block —
// which together with any one share determines the secret — is zeroed when
// a split hands it back, on the success path and on a randomness shortfall.
func TestSplitScratchZeroedAtRest(t *testing.T) {
	secret := bytes.Repeat([]byte{0x77}, 64)
	for scratchPool.Get() != nil { // blocks earlier tests left, of other sizes
	}
	atRest := func() []byte {
		sc := scratchPool.Get()
		if sc == nil {
			t.Fatal("no scratch pooled after a lone split")
		}
		return sc.random[:cap(sc.random)]
	}
	sp := NewSplitter(rand.New(rand.NewSource(5)))
	if _, err := sp.SplitInto(secret, 3, 5, nil); err != nil {
		t.Fatal(err)
	}
	if got := atRest(); len(got) != 2*len(secret) || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("coefficient block at rest after a split: %d bytes, not all zero", len(got))
	}
	short := NewSplitter(bytes.NewReader(bytes.Repeat([]byte{0xff}, 100)))
	if _, err := short.SplitInto(secret, 3, 5, nil); err == nil {
		t.Fatal("split succeeded on 100 of 128 random bytes")
	}
	if got := atRest(); !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatal("coefficient block not zeroed after a failed split")
	}
}

func BenchmarkSplitInto3of5_1400B(b *testing.B) {
	secret := bytes.Repeat([]byte{0x5a}, 1400)
	sp := NewSplitter(rand.New(rand.NewSource(1)))
	shares, err := sp.SplitInto(secret, 3, 5, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(secret)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shares, err = sp.SplitInto(secret, 3, 5, shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineInto3of5_1400B(b *testing.B) {
	secret := bytes.Repeat([]byte{0x5a}, 1400)
	shares, err := NewSplitter(rand.New(rand.NewSource(1))).Split(secret, 3, 5)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, len(secret))
	b.SetBytes(int64(len(secret)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = CombineInto(dst, shares[:3]); err != nil {
			b.Fatal(err)
		}
	}
}
