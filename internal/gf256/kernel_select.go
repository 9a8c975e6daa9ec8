package gf256

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// A kernel is one implementation of the general-case slice passes. The
// degenerate multipliers never reach a pass: the public entry points in
// kernels.go peel them off first, so passes may assume c ∉ {0, 1} for
// addMulPass, x ≠ 0 for mulXorPass, and len(dst) == len(src).
type kernel struct {
	name string
	// addMulPass accumulates dst[i] ^= c*src[i].
	addMulPass func(dst, src []byte, c byte)
	// mulXorPass computes the Horner step acc[i] = x*acc[i] ^ coeff[i].
	mulXorPass func(acc, coeff []byte, x byte)
	// xorPass accumulates dst[i] ^= src[i] — field addition, the pad fold
	// of the XOR scheme. No multiply is involved, but the pass still
	// belongs to the kernel: the vector implementation moves 32 bytes per
	// XOR.
	xorPass func(dst, src []byte)
}

// kern is the active kernel, selected exactly once by selectKernel at the
// end of buildTables — after every table a kernel may read is final — and
// swapped only by ForceKernel (tests and benchmarks). An atomic pointer
// makes the test-time swap safe under -race; the hot path pays one atomic
// load per slice call, amortized over the whole block.
var kern atomic.Pointer[kernel]

// kernelTable enumerates every kernel compiled into this binary, fastest
// first. Selection walks it in order and takes the first available one;
// availability is a capability check (e.g. GFNI or AVX2 plus OS
// vector-state support for the amd64 assembly), evaluated once.
var kernelTable = []struct {
	k         *kernel
	available func() bool
}{
	{&gfniKernel, gfniAvailable},
	{&avx2Kernel, avx2Available},
	{&portableKernel, func() bool { return true }},
}

// kernelEnv is the override knob, read once at init: REMICSS_GFKERNEL names
// the kernel to use (portable, or a platform vector kernel), in the
// spirit of GODEBUG=cpu.all=off. CI runs a job leg with the fallbacks forced
// so every compiled path stays tested; naming an unavailable or unknown
// kernel is a hard failure, not a silent fallback, because a typo here would
// otherwise un-test the path it meant to pin.
const kernelEnv = "REMICSS_GFKERNEL"

// selectKernel installs the fastest available kernel, honoring kernelEnv.
// Called exactly once from buildTables.
func selectKernel() {
	if want := os.Getenv(kernelEnv); want != "" {
		if err := forceKernel(want); err != nil {
			panic("gf256: " + kernelEnv + ": " + err.Error())
		}
		return
	}
	for _, e := range kernelTable {
		if e.available() {
			kern.Store(e.k)
			return
		}
	}
	kern.Store(&portableKernel) // unreachable: portable is always available
}

// KernelName reports the name of the active kernel ("portable", or a
// platform vector kernel: "avx2", "gfni"), for logs and bench reports.
func KernelName() string { return kern.Load().name }

// Kernels lists the kernels available on this machine, sorted by name. Every
// listed kernel can be activated with ForceKernel; the differential tests
// iterate this list so each compiled path is pinned against the table-free
// reference no matter which one init selected.
func Kernels() []string {
	var names []string
	for _, e := range kernelTable {
		if e.available() {
			names = append(names, e.k.name)
		}
	}
	sort.Strings(names)
	return names
}

// ForceKernel activates the named kernel and returns a function restoring
// the previous one. It exists for tests and benchmarks that must pin or
// compare specific implementations; production code selects once at init.
// Concurrent kernel use during a swap is safe (the pointer is atomic) but
// which kernel a racing call gets is unspecified, so callers should quiesce
// other field work around a swap.
func ForceKernel(name string) (restore func(), err error) {
	prev := kern.Load()
	if err := forceKernel(name); err != nil {
		return nil, err
	}
	return func() { kern.Store(prev) }, nil
}

// forceKernel installs the named kernel if it is compiled in and available.
func forceKernel(name string) error {
	for _, e := range kernelTable {
		if e.k.name != name {
			continue
		}
		if !e.available() {
			return fmt.Errorf("kernel %q is not available on this machine", name)
		}
		kern.Store(e.k)
		return nil
	}
	return fmt.Errorf("unknown kernel %q (compiled in: %v)", name, compiledKernels())
}

// compiledKernels lists every kernel in the table, available or not.
func compiledKernels() []string {
	names := make([]string, 0, len(kernelTable))
	for _, e := range kernelTable {
		names = append(names, e.k.name)
	}
	return names
}
