package shamir

import (
	"bytes"
	"testing"
)

// FuzzSplitCombine exercises split/combine over fuzzed secrets and
// parameters.
func FuzzSplitCombine(f *testing.F) {
	f.Add([]byte("secret"), uint8(2), uint8(3))
	f.Add([]byte{0}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, secret []byte, kSeed, mSeed uint8) {
		if len(secret) == 0 || len(secret) > 1<<12 {
			return
		}
		m := int(mSeed)%8 + 1
		k := int(kSeed)%m + 1
		shares, err := Split(secret, k, m)
		if err != nil {
			t.Fatalf("valid parameters rejected: %v", err)
		}
		got, err := Combine(shares[:k])
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatal("roundtrip mismatch")
		}
		// The into variants must agree with the wrappers on the same shares.
		intoShares, err := NewSplitter(nil).SplitInto(secret, k, m, make([]Share, 0, m))
		if err != nil {
			t.Fatalf("split into: %v", err)
		}
		gotInto, err := CombineInto(make([]byte, 0, len(secret)), intoShares[m-k:])
		if err != nil {
			t.Fatalf("combine into: %v", err)
		}
		if !bytes.Equal(gotInto, secret) {
			t.Fatal("into-variant roundtrip mismatch")
		}
	})
}
