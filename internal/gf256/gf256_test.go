package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	cases := []struct {
		a, b, want byte
	}{
		{0, 0, 0},
		{0xff, 0xff, 0},
		{0x53, 0xca, 0x99},
		{1, 2, 3},
	}
	for _, tc := range cases {
		if got := Add(tc.a, tc.b); got != tc.want {
			t.Errorf("Add(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
		if got := Sub(tc.a, tc.b); got != tc.want {
			t.Errorf("Sub(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

// mulSlow is an independent bit-by-bit ("Russian peasant") multiplication
// used as an oracle for the table-driven implementation.
func mulSlow(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= byte(poly & 0xff)
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesSlowOracle(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestKnownAESProducts(t *testing.T) {
	// Known products under the AES polynomial.
	cases := []struct {
		a, b, want byte
	}{
		{0x57, 0x83, 0xc1},
		{0x57, 0x13, 0xfe},
		{0x02, 0x87, 0x15},
		{0x53, 0xca, 0x01},
	}
	for _, tc := range cases {
		if got := Mul(tc.a, tc.b); got != tc.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestMulProperties(t *testing.T) {
	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, nil); err != nil {
		t.Error("multiplication not commutative:", err)
	}
	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Error("multiplication not associative:", err)
	}
	distributive := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(distributive, nil); err != nil {
		t.Error("multiplication not distributive over addition:", err)
	}
	identity := func(a byte) bool { return Mul(a, 1) == a }
	if err := quick.Check(identity, nil); err != nil {
		t.Error("1 is not a multiplicative identity:", err)
	}
	zero := func(a byte) bool { return Mul(a, 0) == 0 }
	if err := quick.Check(zero, nil); err != nil {
		t.Error("0 is not absorbing:", err)
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Div(1, byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("Mul(%#x, Div(1, %#x)) = %#x, want 1", a, a, got)
		}
		if got := mulSlow(byte(a), inv); got != 1 {
			t.Fatalf("Div(1, %#x) = %#x is not the inverse under the slow oracle", a, inv)
		}
	}
	roundtrip := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(roundtrip, nil); err != nil {
		t.Error("Div is not a right inverse of Mul:", err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

// TestExpLogRoundtrip checks the discrete log/exp tables Mul and Div read:
// logTable inverts expTable on every nonzero element, and the doubled half
// of expTable repeats the first, so Mul may index logA+logB unreduced.
func TestExpLogRoundtrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := expTable[logTable[a]]; got != byte(a) {
			t.Fatalf("expTable[logTable[%#x]] = %#x", a, got)
		}
	}
	for i := 0; i < 255; i++ {
		if expTable[i+255] != expTable[i] {
			t.Fatalf("expTable[%d] = %#x, expTable[%d] = %#x", i+255, expTable[i+255], i, expTable[i])
		}
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	seen := make(map[byte]bool, 255)
	for i := 0; i < 255; i++ {
		seen[expTable[i]] = true
		if i > 0 && expTable[i] != mulSlow(expTable[i-1], generator) {
			t.Fatalf("expTable[%d] = %#x is not generator·expTable[%d]", i, expTable[i], i-1)
		}
	}
	if len(seen) != 255 {
		t.Errorf("generator produced %d distinct powers, want 255", len(seen))
	}
	if seen[0] {
		t.Error("generator powers include zero")
	}
}

func TestEvalPoly(t *testing.T) {
	// p(x) = 7 (constant)
	if got := EvalPoly([]byte{7}, 0x35); got != 7 {
		t.Errorf("constant poly eval = %#x, want 7", got)
	}
	// p(x) = 3 + 2x at x=1 is 3^2... in GF(2^8): 3 XOR 2 = 1.
	if got := EvalPoly([]byte{3, 2}, 1); got != 1 {
		t.Errorf("EvalPoly(3+2x, 1) = %#x, want 1", got)
	}
	// p(0) is always the constant term.
	constTerm := func(c0, c1, c2 byte) bool {
		return EvalPoly([]byte{c0, c1, c2}, 0) == c0
	}
	if err := quick.Check(constTerm, nil); err != nil {
		t.Error("EvalPoly(_, 0) != constant term:", err)
	}
	// Empty polynomial evaluates to zero.
	if got := EvalPoly(nil, 0x42); got != 0 {
		t.Errorf("EvalPoly(nil, x) = %#x, want 0", got)
	}
}

func TestInterpolateRecoversPolynomial(t *testing.T) {
	// Interpolating deg < n polynomial through n points must reproduce it
	// everywhere.
	coeffs := []byte{0x1d, 0x80, 0x07}
	xs := []byte{1, 2, 3}
	ys := make([]byte, len(xs))
	for i, x := range xs {
		ys[i] = EvalPoly(coeffs, x)
	}
	for at := 0; at < 256; at++ {
		want := EvalPoly(coeffs, byte(at))
		if got := Interpolate(xs, ys, byte(at)); got != want {
			t.Fatalf("Interpolate at %#x = %#x, want %#x", at, got, want)
		}
	}
	if got := InterpolateAtZero(xs, ys); got != coeffs[0] {
		t.Errorf("InterpolateAtZero = %#x, want %#x", got, coeffs[0])
	}
}

func TestInterpolatePanics(t *testing.T) {
	t.Run("mismatched lengths", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on mismatched slice lengths")
			}
		}()
		Interpolate([]byte{1, 2}, []byte{1}, 0)
	})
	t.Run("duplicate abscissa", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on duplicate abscissa")
			}
		}()
		Interpolate([]byte{1, 1}, []byte{2, 3}, 0)
	})
}

func BenchmarkMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8)|1)
	}
	_ = acc
}

func BenchmarkInterpolateAtZero(b *testing.B) {
	xs := []byte{1, 2, 3, 4, 5}
	ys := []byte{0x17, 0x2a, 0x9c, 0x44, 0xd1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InterpolateAtZero(xs, ys)
	}
}
