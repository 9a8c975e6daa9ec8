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
		shares, err := NewSplitter(nil).SplitInto(secret, k, m, nil)
		if err != nil {
			t.Fatalf("valid parameters rejected: %v", err)
		}
		got, err := CombineInto(nil, shares[:k])
		if err != nil {
			t.Fatalf("combine: %v", err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatal("roundtrip mismatch")
		}
		// A second round trip on the first one's buffers must agree.
		shares, err = NewSplitter(nil).SplitInto(secret, k, m, shares)
		if err != nil {
			t.Fatalf("split into recycled shares: %v", err)
		}
		got, err = CombineInto(got, shares[m-k:])
		if err != nil {
			t.Fatalf("combine into recycled dst: %v", err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatal("recycled-storage roundtrip mismatch")
		}
	})
}
