//go:build !amd64 || purego

package drbg

// Targets without the VAES keystream: every refill takes the cipher.NewCTR
// path.

var useVAES = false

// generateVAES is unreachable here: refill calls it only when useVAES is
// set.
func (d *DRBG) generateVAES() {
	panic("drbg: VAES keystream is not compiled in")
}
