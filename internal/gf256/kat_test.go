package gf256

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Golden known-answer vectors for the slice kernels, committed under
// testdata so a table-construction or kernel regression cannot hide behind
// a reference implementation regressing in the same change. The Mul
// anchors are published constants from FIPS-197 §4.2 (and the classic
// {ff}·{ff} exercise); the slice vectors were generated from the table-free
// shift-and-add reference and pinned.
//
// Regenerate slice vectors with:
//
//	GF256_WRITE_KAT=1 go test -run TestWriteKAT ./internal/gf256

// TestFIPS197Anchors checks multiplication facts stated in or derived by
// hand from the AES standard — independent of every table and kernel in
// this package.
func TestFIPS197Anchors(t *testing.T) {
	anchors := []struct{ a, b, want byte }{
		{0x57, 0x83, 0xc1}, // FIPS-197 §4.2 worked example
		{0x57, 0x13, 0xfe}, // FIPS-197 §4.2.1 xtime chain
		{0x53, 0xca, 0x01}, // inverse pair from the S-box derivation
		{0x02, 0x80, 0x1b}, // xtime overflow: the reduction polynomial tail
		{0x02, 0x7f, 0xfe}, // xtime without overflow
		{0xff, 0xff, 0x13}, // full-weight operands, hand-reduced
		{0x01, 0xab, 0xab}, // multiplicative identity
		{0x00, 0xab, 0x00}, // absorbing zero
	}
	for _, a := range anchors {
		if got := Mul(a.a, a.b); got != a.want {
			t.Errorf("Mul(%#02x, %#02x) = %#02x, want %#02x", a.a, a.b, got, a.want)
		}
		if got := Mul(a.b, a.a); got != a.want {
			t.Errorf("Mul(%#02x, %#02x) = %#02x, want %#02x (commuted)", a.b, a.a, got, a.want)
		}
	}
	// The same anchors must hold through every kernel's slice path: a
	// scaled accumulate into zeros is the plain product.
	withKernels(t, func(t *testing.T, name string) {
		for _, a := range anchors {
			src := bytes.Repeat([]byte{a.b}, 37) // odd length: exercises tails
			dst := make([]byte, len(src))
			AddMulSlice(dst, src, a.a)
			for i, got := range dst {
				if got != a.want {
					t.Fatalf("AddMulSlice(%#02x)[%d] = %#02x, want %#02x", a.a, i, got, a.want)
				}
			}
		}
	})
}

type sliceKAT struct {
	Name string `json:"name"`
	C    byte   `json:"c"`
	Src  string `json:"src"`
	Mul  string `json:"mul"`    // c * src (AddMulSlice into zeros)
	Acc  string `json:"acc"`    // src ^ c*src (AddMulSlice with dst=src)
	X    byte   `json:"x"`      // Horner multiplier
	Hor  string `json:"horner"` // x*src ^ src (HornerBlock on blocks src, src)
}

const gfKATFile = "testdata/slice_kat.json"

// katSources are the fixed inputs of the committed vectors: edge patterns
// first (all-zero, all-ones, the reduction-polynomial byte), then a ramp
// long enough to cross the 32-byte vector stride with a ragged tail.
func katSources() []struct {
	name string
	c, x byte
	src  []byte
} {
	ramp := make([]byte, 77)
	for i := range ramp {
		ramp[i] = byte(i * 5)
	}
	return []struct {
		name string
		c, x byte
		src  []byte
	}{
		{"zero-src", 0x57, 0x02, make([]byte, 40)},
		{"all-ff", 0xff, 0xff, bytes.Repeat([]byte{0xff}, 48)},
		{"poly-byte", 0x02, 0x8d, bytes.Repeat([]byte{0x80, 0x1b, 0x11}, 11)},
		{"ramp-57", 0x57, 0x83, ramp},
	}
}

func TestSliceKnownAnswerVectors(t *testing.T) {
	raw, err := os.ReadFile(filepath.FromSlash(gfKATFile))
	if err != nil {
		t.Fatalf("missing KAT vectors (regenerate with GF256_WRITE_KAT=1): %v", err)
	}
	var vectors []sliceKAT
	if err := json.Unmarshal(raw, &vectors); err != nil {
		t.Fatal(err)
	}
	if len(vectors) != len(katSources()) {
		t.Fatalf("KAT file has %d vectors, test defines %d sources", len(vectors), len(katSources()))
	}
	withKernels(t, func(t *testing.T, name string) {
		for i, src := range katSources() {
			v := vectors[i]
			if v.Name != src.name || v.C != src.c || v.X != src.x || v.Src != hex.EncodeToString(src.src) {
				t.Fatalf("vector %d drifted from its source definition (%q vs %q)", i, v.Name, src.name)
			}
			dst := make([]byte, len(src.src))
			AddMulSlice(dst, src.src, src.c)
			if got := hex.EncodeToString(dst); got != v.Mul {
				t.Fatalf("%s: AddMulSlice into zeros mismatch\n got %s\nwant %s", v.Name, got, v.Mul)
			}
			acc := append([]byte(nil), src.src...)
			AddMulSlice(acc, src.src, src.c)
			if got := hex.EncodeToString(acc); got != v.Acc {
				t.Fatalf("%s: AddMulSlice mismatch\n got %s\nwant %s", v.Name, got, v.Acc)
			}
			hor := make([]byte, len(src.src))
			HornerBlock(hor, src.x, [][]byte{src.src, src.src}, 0, len(hor))
			if got := hex.EncodeToString(hor); got != v.Hor {
				t.Fatalf("%s: HornerBlock mismatch\n got %s\nwant %s", v.Name, got, v.Hor)
			}
		}
	})
}

// TestWriteKAT regenerates the committed slice vectors from the table-free
// reference. Generator, not test: runs only under GF256_WRITE_KAT=1.
func TestWriteKAT(t *testing.T) {
	if os.Getenv("GF256_WRITE_KAT") == "" {
		t.Skip("set GF256_WRITE_KAT=1 to regenerate testdata")
	}
	var vectors []sliceKAT
	for _, s := range katSources() {
		mul := make([]byte, len(s.src))
		acc := make([]byte, len(s.src))
		hor := make([]byte, len(s.src))
		for i, b := range s.src {
			mul[i] = refMul(s.c, b)
			acc[i] = b ^ mul[i]
			hor[i] = refMul(s.x, b) ^ b
		}
		vectors = append(vectors, sliceKAT{
			Name: s.name, C: s.c, X: s.x,
			Src: hex.EncodeToString(s.src),
			Mul: hex.EncodeToString(mul),
			Acc: hex.EncodeToString(acc),
			Hor: hex.EncodeToString(hor),
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(vectors); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.FromSlash(gfKATFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d vectors to %s", len(vectors), gfKATFile)
}
