//go:build !amd64 || purego

package gf256

// Targets without the vector kernels: the table still lists them so
// selection and ForceKernel treat every platform uniformly, but they never
// report available, so init falls through to the portable kernel.

var (
	gfniKernel = kernel{name: "gfni"}
	avx2Kernel = kernel{name: "avx2"}
)

func gfniAvailable() bool { return false }

func avx2Available() bool { return false }

// gfniHorner is unreachable here: HornerBlock calls it only while gfniKernel
// is active, which it never is on these targets.
func gfniHorner(dst []byte, x byte, blocks [][]byte, lo, hi int) {
	panic("gf256: gfni kernel is not compiled in")
}
