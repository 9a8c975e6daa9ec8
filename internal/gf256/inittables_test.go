package gf256

// TestMain runs the kernel checks before any test function, so the slice
// kernels are exercised before any scalar operation in the whole test
// binary: this proves the kernel tables do not depend on some other entry
// point (or on source-file init ordering) having run first. The reference
// multiplication below is an independent shift-and-add (Russian peasant)
// implementation that uses no package tables.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// kernelFirstErr records the outcome of the pre-test kernel check.
var kernelFirstErr error

func TestMain(m *testing.M) {
	kernelFirstErr = checkKernelBeforeScalarOps()
	os.Exit(m.Run())
}

// refMul multiplies a and b in GF(2^8) by shift-and-add reduction modulo the
// AES polynomial, using no lookup tables.
func refMul(a, b byte) byte {
	var p byte
	aa, bb := int(a), int(b)
	for i := 0; i < 8; i++ {
		if bb&1 != 0 {
			p ^= byte(aa)
		}
		bb >>= 1
		aa <<= 1
		if aa >= 0x100 {
			aa ^= poly
		}
	}
	return p
}

// checkKernelBeforeScalarOps drives AddMulSlice and HornerBlock as the very
// first field operations of the test binary and checks them against the
// table-free reference. If table construction were still split across
// per-file init funcs with an implicit ordering, a reordering regression
// would surface here as wholesale wrong products rather than depending on
// which API a caller happened to touch first.
func checkKernelBeforeScalarOps() error {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, 256)
	for c := 0; c < 256; c++ {
		clear(dst)
		AddMulSlice(dst, src, byte(c))
		for i := range src {
			if want := refMul(byte(c), src[i]); dst[i] != want {
				return fmt.Errorf("AddMulSlice: %#02x * %#02x = %#02x, want %#02x", c, src[i], dst[i], want)
			}
		}
	}

	// One fused Horner step per block over a 3-coefficient polynomial,
	// checked element-wise against the reference arithmetic.
	top := []byte{0x53, 0x00, 0xff, 0x01, 0xca}
	mid := []byte{0x0e, 0x80, 0x02, 0xfe, 0x00}
	con := []byte{0xde, 0xad, 0xbe, 0xef, 0x99}
	got := make([]byte, 5)
	const x = 0x47
	HornerBlock(got, x, [][]byte{top, mid, con}, 0, 5)
	for i := range got {
		want := refMul(refMul(top[i], x)^mid[i], x) ^ con[i]
		if got[i] != want {
			return fmt.Errorf("HornerBlock[%d] = %#02x, want %#02x", i, got[i], want)
		}
	}
	return nil
}

func TestKernelBeforeScalarOps(t *testing.T) {
	if kernelFirstErr != nil {
		t.Fatal(kernelFirstErr)
	}
}

func TestInitTablesIdempotent(t *testing.T) {
	exp, nib := expTable, nibTab
	initTables() // must be a no-op on a second call
	if exp != expTable {
		t.Fatal("initTables mutated expTable on repeat call")
	}
	if nib != nibTab {
		t.Fatal("initTables mutated nibTab on repeat call")
	}
}

// TestHornerBlockMatchesMulAddSlice checks the fused, windowed HornerBlock
// against one full-length Horner step per block (hornerStep).
func TestHornerBlockMatchesMulAddSlice(t *testing.T) {
	const L = 1000 // odd-ish length exercising the unrolled tail
	blocks := make([][]byte, 4)
	for b := range blocks {
		blocks[b] = make([]byte, L)
		for i := range blocks[b] {
			blocks[b][i] = byte((i*31 + b*17 + 7) % 256)
		}
	}
	for _, x := range []byte{0, 1, 2, 0x53, 0xff} {
		want := make([]byte, L)
		copy(want, blocks[0])
		for _, c := range blocks[1:] {
			hornerStep(want, x, c)
		}
		got := make([]byte, L)
		// Evaluate through ragged windows to cover lo>0 and short tails.
		for lo := 0; lo < L; {
			hi := lo + 333
			if hi > L {
				hi = L
			}
			HornerBlock(got, x, blocks, lo, hi)
			lo = hi
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("HornerBlock(x=%#02x) diverges from the step sequence", x)
		}
	}
}

func TestHornerBlockPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	dst := make([]byte, 8)
	blk := [][]byte{make([]byte, 8)}
	mustPanic("no blocks", func() { HornerBlock(dst, 1, nil, 0, 8) })
	mustPanic("hi beyond dst", func() { HornerBlock(dst, 1, blk, 0, 9) })
	mustPanic("lo negative", func() { HornerBlock(dst, 1, blk, -1, 4) })
	mustPanic("short block", func() { HornerBlock(dst, 1, [][]byte{make([]byte, 4)}, 0, 8) })
}
