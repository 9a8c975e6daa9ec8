package sharing

import (
	"bytes"
	"math/rand"
	"testing"

	"remicss/internal/drbg"
)

// FuzzSplitCombine drives every scheme in the package through
// split → shuffle → combine on fuzzed secrets and parameters, with all
// randomness drawn from a deterministic DRBG derived from the fuzz input —
// a failing case replays exactly, coefficients and pads included. Each
// scheme must reconstruct the secret from an arbitrary k-subset of its
// shares, on fresh storage and again on the first round's recycled buffers.
func FuzzSplitCombine(f *testing.F) {
	f.Add([]byte("secret"), uint8(2), uint8(5), int64(1))
	f.Add([]byte{0}, uint8(1), uint8(1), int64(2))
	f.Add([]byte{0xff, 0x00, 0x1b}, uint8(8), uint8(8), int64(3))
	f.Add(bytes.Repeat([]byte{0xA5}, 500), uint8(3), uint8(3), int64(4))
	f.Fuzz(func(t *testing.T, secret []byte, kSeed, mSeed uint8, seed int64) {
		if len(secret) == 0 || len(secret) > 1<<10 {
			return
		}
		m := int(mSeed)%8 + 1
		k := int(kSeed)%m + 1
		rng := rand.New(rand.NewSource(seed))

		newReader := func(label string) *drbg.DRBG {
			return drbg.NewDeterministic(append([]byte(label), byte(seed), kSeed, mSeed))
		}
		authed, err := NewAuthenticated(NewAuto(newReader("auth")), []byte("fuzz key"))
		if err != nil {
			t.Fatal(err)
		}
		schemes := []Scheme{
			NewShamir(newReader("shamir")),
			NewXOR(newReader("xor")),
			Replication{},
			authed,
			NewAuto(newReader("auto")),
		}
		for _, s := range schemes {
			supported := true
			switch s.(type) {
			case *XOR:
				supported = k == m
			case Replication:
				supported = k == 1
			}
			shares, err := s.SplitSharesInto(secret, k, m, nil)
			if !supported {
				if err == nil {
					t.Fatalf("%s accepted unsupported (k=%d, m=%d)", s.Name(), k, m)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s split (k=%d, m=%d): %v", s.Name(), k, m, err)
			}
			if len(shares) != m {
				t.Fatalf("%s produced %d shares, want %d", s.Name(), len(shares), m)
			}

			// Reconstruction must not depend on share order or on which
			// k-subset survives the channels.
			shuffled := append([]Share(nil), shares...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			got, err := s.CombineInto(nil, shuffled[:k], k, m)
			if err != nil {
				t.Fatalf("%s combine (k=%d, m=%d): %v", s.Name(), k, m, err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatalf("%s roundtrip mismatch (k=%d, m=%d)", s.Name(), k, m)
			}

			// A second round on the first one's share and secret buffers,
			// through the package-level helpers, must round-trip too.
			intoShares, err := SplitInto(s, secret, k, m, shares)
			if err != nil {
				t.Fatalf("%s split-into: %v", s.Name(), err)
			}
			rng.Shuffle(len(intoShares), func(i, j int) {
				intoShares[i], intoShares[j] = intoShares[j], intoShares[i]
			})
			gotInto, err := CombineInto(s, got, intoShares[:k], k, m)
			if err != nil {
				t.Fatalf("%s combine-into: %v", s.Name(), err)
			}
			if !bytes.Equal(gotInto, secret) {
				t.Fatalf("%s recycled-storage roundtrip mismatch (k=%d, m=%d)", s.Name(), k, m)
			}
		}
	})
}
