package sharing

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func newAuth(t *testing.T) *Authenticated {
	t.Helper()
	a, err := NewAuthenticated(NewAuto(rand.New(rand.NewSource(1))), []byte("session key"))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAuthenticatedRoundtrip(t *testing.T) {
	a := newAuth(t)
	secret := []byte("integrity matters")
	for m := 1; m <= 5; m++ {
		for k := 1; k <= m; k++ {
			shares, err := a.SplitSharesInto(secret, k, m, nil)
			if err != nil {
				t.Fatalf("Split(k=%d, m=%d): %v", k, m, err)
			}
			got, err := a.CombineInto(nil, shares[:k], k, m)
			if err != nil {
				t.Fatalf("Combine(k=%d, m=%d): %v", k, m, err)
			}
			if !bytes.Equal(got, secret) {
				t.Errorf("k=%d m=%d: got %q", k, m, got)
			}
		}
	}
}

func TestAuthenticatedDetectsTampering(t *testing.T) {
	a := newAuth(t)
	shares, err := a.SplitSharesInto([]byte("tamper me"), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func([]Share)
	}{
		{"payload bit flip", func(s []Share) { s[0].Data[0] ^= 1 }},
		{"tag bit flip", func(s []Share) { s[0].Data[len(s[0].Data)-1] ^= 1 }},
		{"index swap", func(s []Share) { s[0].Index, s[1].Index = s[1].Index, s[0].Index }},
		{"truncated", func(s []Share) { s[0].Data = s[0].Data[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tampered := make([]Share, 2)
			for i := range tampered {
				tampered[i] = Share{Index: shares[i].Index, Data: append([]byte(nil), shares[i].Data...)}
			}
			tc.mod(tampered)
			if _, err := a.CombineInto(nil, tampered, 2, 3); !errors.Is(err, ErrShareForged) {
				t.Errorf("got %v, want ErrShareForged", err)
			}
		})
	}
}

func TestAuthenticatedWrongKey(t *testing.T) {
	a := newAuth(t)
	b, err := NewAuthenticated(NewAuto(rand.New(rand.NewSource(2))), []byte("different key"))
	if err != nil {
		t.Fatal(err)
	}
	shares, err := a.SplitSharesInto([]byte("keyed"), 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CombineInto(nil, shares[:2], 2, 3); !errors.Is(err, ErrShareForged) {
		t.Errorf("got %v, want ErrShareForged", err)
	}
}

func TestAuthenticatedValidation(t *testing.T) {
	if _, err := NewAuthenticated(nil, []byte("k")); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewAuthenticated(NewAuto(nil), nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestAuthenticatedName(t *testing.T) {
	a := newAuth(t)
	if got := a.Name(); got != "authenticated-auto" {
		t.Errorf("Name = %q", got)
	}
}

func TestAuthenticatedOverheadIsTagLen(t *testing.T) {
	a := newAuth(t)
	plain := NewAuto(rand.New(rand.NewSource(3)))
	secret := bytes.Repeat([]byte{1}, 100)
	as, err := a.SplitSharesInto(secret, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := plain.SplitSharesInto(secret, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(as[0].Data) - len(ps[0].Data); got != tagLen {
		t.Errorf("overhead = %d, want %d", got, tagLen)
	}
}

func BenchmarkAuthenticatedSplit(b *testing.B) {
	a, err := NewAuthenticated(NewAuto(rand.New(rand.NewSource(1))), []byte("key"))
	if err != nil {
		b.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x42}, 1400)
	b.SetBytes(int64(len(secret)))
	for i := 0; i < b.N; i++ {
		if _, err := a.SplitSharesInto(secret, 3, 5, nil); err != nil {
			b.Fatal(err)
		}
	}
}
