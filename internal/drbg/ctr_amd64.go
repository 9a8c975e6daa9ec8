//go:build amd64 && !purego

package drbg

// The VAES keystream tier of refill (ctr_amd64.s). The stdlib's
// cipher.NewCTR runs 128-bit AES-NI, one block per AESENC; VAES runs the
// same round on two blocks per 256-bit register, eight registers in flight,
// and writes the keystream straight into the batch buffer. The key
// schedule is expanded by AESKEYGENASSIST into the state's sched field for
// the length of one refill, so nothing is allocated: the update step
// encrypts its three counter blocks under the same schedule.

// expandKeyAES256 writes the 15 AES-256 round keys of key into sched.
//
//go:noescape
func expandKeyAES256(key *[keyLen]byte, sched *[schedLen]byte)

// ctrVAES writes n keystream blocks AES_K(hi‖lo+1+i), i in [0, n), to dst.
// lo+n must not wrap.
//
//go:noescape
func ctrVAES(sched *[schedLen]byte, dst *byte, hi, lo uint64, n int)

// cpuid executes CPUID with the given leaf and subleaf (ctr_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (ctr_amd64.s).
func xgetbv() (eax, edx uint32)

// useVAES selects the VAES refill. Probed once at init; tests clear it to
// force the cipher.NewCTR path on a machine that has VAES.
var useVAES = detectVAES()

// detectVAES checks AES, OSXSAVE and AVX (leaf 1), OS XMM/YMM state
// enablement (XCR0 bits 1 and 2), and AVX2 and VAES (leaf 7 EBX bit 5, ECX
// bit 9): the routines use VEX-encoded AES on YMM registers and AVX2
// integer shuffles and adds for the counters.
func detectVAES() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const aesni, osxsave, avx = 1 << 25, 1 << 27, 1 << 28
	if ecx1&aesni == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&0x6 != 0x6 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 && ecx7&(1<<9) != 0
}

// generateVAES is refill's generate-and-update on the VAES tier: blocks
// V+1 … V+batchBlocks into buf, then V+batchBlocks+1 … +3 into temp for
// the update, all under one schedule that is cleared before return. The
// caller has checked vaesCovers.
//
//remicss:noalloc
func (d *DRBG) generateVAES() {
	hi, lo := counterWords(&d.v) //remicss:secret
	expandKeyAES256(&d.key, &d.sched)
	ctrVAES(&d.sched, &d.buf[0], hi, lo, batchBlocks)
	ctrVAES(&d.sched, &d.temp[0], hi, lo+batchBlocks, seedLen/blockLen)
	clear(d.sched[:])
	d.adopt(nil)
}
