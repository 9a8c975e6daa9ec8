// Package drbg supplies the module's fast randomness engine: an AES-256
// counter DRBG — the CTR_DRBG construction of NIST SP 800-90A §10.2.1,
// instantiated without a derivation function — seeded from crypto/rand and
// generating keystream in large batches so a steady-state Read costs one
// memcpy instead of a kernel round trip. On hardware with AES instructions
// the generator sustains multiple GB/s where crypto/rand measures in the
// hundreds of MB/s, which is what moves the split pipeline's bottleneck
// off the random pad and coefficient draws.
//
// The paper's Randomness Requirements analysis prices every share in units
// of random bytes drawn per secret byte: an (k, m) split consumes
// (k-1)·|s| pad bytes for XOR and coefficient bytes for Shamir, so the
// sender's throughput ceiling is the generator's, not the field kernel's.
// This package exists to raise that ceiling without weakening the threat
// model: the construction is the standardized one, the seed is the
// operating system's entropy, and the state is inside the module's
// //remicss:secret perimeter so the taint analyzer proves key and counter
// bytes never reach logs, errors, traces, or unannotated retained state.
//
// A *DRBG is single-caller state; Pool is the concurrent front door.
package drbg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	keyLen   = 32            // AES-256
	blockLen = aes.BlockSize // CTR_DRBG outlen
	seedLen  = keyLen + blockLen

	// batchLen is the keystream produced per spec-level Generate: the
	// request stays far under the standard's 2^19-bit per-request ceiling
	// while amortizing the post-generate rekey (update) to under 1% of the
	// AES work. Read serves from this buffer and scrubs bytes as they
	// leave, so backtracking resistance holds for served output even
	// against a later memory compromise.
	batchLen    = 16 * 1024
	batchBlocks = batchLen / blockLen

	// refillBlocks is the counter span one refill consumes: the batch's
	// keystream blocks plus the update's three.
	refillBlocks = batchBlocks + seedLen/blockLen

	// schedLen is the AES-256 round-key schedule: 15 round keys.
	schedLen = 15 * blockLen

	// reseedAfter is the generated-byte budget after which an
	// entropy-backed instance folds fresh crypto/rand output into its
	// state. 16 MiB is vastly tighter than the standard's 2^48-request
	// reseed interval; it bounds the window a captured state stays useful.
	reseedAfter = 1 << 24
)

// ErrEntropy tags failures of the seeding entropy source. Every error this
// package returns wraps it, so callers gate on errors.Is(err, ErrEntropy)
// rather than string matching.
var ErrEntropy = errors.New("drbg: entropy source failed")

// DRBG is one CTR_DRBG instance. It is not safe for concurrent use — each
// caller owns one, typically borrowed from a Pool. The zero value is not
// usable; construct with New, NewWithEntropy, or NewDeterministic.
type DRBG struct {
	key [keyLen]byte   //remicss:secret
	v   [blockLen]byte //remicss:secret

	// buf[off:] is generated-but-unserved keystream; served bytes are
	// zeroed in place so the state never retains past output.
	buf [batchLen]byte //remicss:secret
	off int

	// temp is update's working block: the next key and counter before they
	// are adopted. It lives here because a local passed to the cipher.Block
	// interface would be heap-allocated per refill; update clears it.
	temp [seedLen]byte //remicss:secret

	// sched is the VAES refill's expansion of key, live only while that
	// refill runs; generateVAES clears it before returning.
	sched [schedLen]byte //remicss:secret

	generated int       // bytes generated since the last (re)seed
	pid       int       // process id at the last (re)seed; fork detector
	entropy   io.Reader // nil for deterministic instances: never reseeds
}

// New returns a generator seeded from the operating system's entropy
// source, reseeding from it on interval and on fork.
func New() (*DRBG, error) { return NewWithEntropy(rand.Reader) }

// NewWithEntropy is New with an explicit entropy source, which must
// deliver 48 bytes per (re)seed. Short reads and read errors surface
// wrapped in ErrEntropy.
func NewWithEntropy(r io.Reader) (*DRBG, error) {
	d := &DRBG{entropy: r, off: batchLen}
	if err := d.reseed(); err != nil {
		return nil, err
	}
	return d, nil
}

// NewDeterministic derives the 48 bytes of seed material from seed with
// domain-separated SHA-256 and never touches an entropy source, so the
// output stream is a pure function of seed. It exists for the test wall —
// differential runs, fuzzing, and known-answer vectors — and must not be
// used for production shares.
func NewDeterministic(seed []byte) *DRBG {
	var material [seedLen]byte
	h := sha256.New()
	h.Write([]byte("remicss/drbg deterministic key\x00"))
	h.Write(seed)
	h.Sum(material[:0])
	h.Reset()
	h.Write([]byte("remicss/drbg deterministic ctr\x00"))
	h.Write(seed)
	copy(material[keyLen:], h.Sum(nil))

	d := &DRBG{off: batchLen}
	d.update(d.block(), &material)
	clear(material[:])
	return d
}

// Read fills p with keystream. It satisfies io.Reader but never returns a
// short count with a nil error; the only failure mode is a reseed whose
// entropy read failed, reported wrapped in ErrEntropy with the bytes
// delivered so far counted.
//
//remicss:noalloc
func (d *DRBG) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if d.off == len(d.buf) {
			if err := d.refill(); err != nil {
				return n, err
			}
		}
		c := copy(p[n:], d.buf[d.off:])
		clear(d.buf[d.off : d.off+c]) // served output never lingers in state
		d.off += c
		n += c
	}
	return n, nil
}

// refill runs one spec-level Generate of batchLen bytes: keystream blocks
// AES_K(V+1), AES_K(V+2), …, then a no-input update that encrypts the
// next three counter blocks and adopts them as key and counter — the
// spec's backtracking-resistance step, here also the fork/interval reseed
// point for entropy-backed instances. Both the keystream and the update
// run under one key schedule, which cannot outlive the refill because that
// update replaces the key.
//
// Where the CPU has VAES, generateVAES does both without allocating.
// generateCTR is the stdlib path: on every other CPU, and for the one batch
// in 2^54 whose counters would carry out of the low 64 bits, which the
// VAES routine's per-lane adds do not propagate.
func (d *DRBG) refill() error {
	if d.entropy != nil && (d.generated >= reseedAfter || d.pid != os.Getpid()) {
		if err := d.reseed(); err != nil {
			return err
		}
	}
	if useVAES && vaesCovers(&d.v) {
		d.generateVAES()
	} else {
		d.generateCTR()
	}
	d.generated += batchLen
	d.off = 0
	return nil
}

// generateCTR is refill's generate-and-update through cipher.NewCTR (which
// dispatches to the hardware AES units). It allocates the cipher and the
// CTR stream; the update reuses the cipher.
func (d *DRBG) generateCTR() {
	b := d.block()
	incr(&d.v)
	ctr := cipher.NewCTR(b, d.v[:])
	clear(d.buf[:])
	ctr.XORKeyStream(d.buf[:], d.buf[:])
	addTo(&d.v, batchBlocks-1)
	d.update(b, nil)
}

// vaesCovers reports whether the counters of the refill starting from v —
// V+1 … V+refillBlocks — share v's high 64 bits.
func vaesCovers(v *[blockLen]byte) bool {
	_, lo := counterWords(v)
	return lo <= math.MaxUint64-refillBlocks
}

// counterWords splits the big-endian counter into its high and low qwords.
func counterWords(v *[blockLen]byte) (hi, lo uint64) {
	return binary.BigEndian.Uint64(v[:8]), binary.BigEndian.Uint64(v[8:])
}

// reseed folds 48 fresh entropy bytes into the state via update. Against
// the zero state of a new instance this is exactly the spec's Instantiate
// (Key = 0, V = 0, then Update(entropy)); on a live instance it is Reseed.
func (d *DRBG) reseed() error {
	var seed [seedLen]byte
	if _, err := io.ReadFull(d.entropy, seed[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrEntropy, err)
	}
	d.update(d.block(), &seed)
	clear(seed[:])
	d.generated = 0
	d.pid = os.Getpid()
	return nil
}

// block returns the AES key schedule of the current key.
func (d *DRBG) block() cipher.Block {
	b, err := aes.NewCipher(d.key[:])
	if err != nil { // unreachable: the key length is fixed
		panic(err)
	}
	return b
}

// update is CTR_DRBG_Update: encrypt the next three counter blocks under
// the current key (b is its schedule, from d.block), XOR in the provided
// seed material, and adopt the result as the new key and counter. material
// may be nil — the zero additional input applied after every generate,
// which is what makes a captured state useless for reconstructing earlier
// output.
func (d *DRBG) update(b cipher.Block, material *[seedLen]byte) {
	for i := 0; i < seedLen; i += blockLen {
		incr(&d.v)
		b.Encrypt(d.temp[i:i+blockLen], d.v[:])
	}
	d.adopt(material)
}

// adopt finishes CTR_DRBG_Update once temp holds the three encrypted
// counter blocks: XOR in material (nil is the zero input), take the result
// as the new key and counter, and clear temp.
//
//remicss:noalloc
func (d *DRBG) adopt(material *[seedLen]byte) {
	temp := &d.temp
	if material != nil {
		for i := range temp {
			temp[i] ^= material[i]
		}
	}
	copy(d.key[:], temp[:keyLen])
	copy(d.v[:], temp[keyLen:])
	clear(temp[:])
}

// incr advances the big-endian counter by one.
func incr(v *[blockLen]byte) {
	for i := blockLen - 1; i >= 0; i-- {
		v[i]++
		if v[i] != 0 {
			return
		}
	}
}

// addTo advances the big-endian counter by n.
func addTo(v *[blockLen]byte, n uint64) {
	for i := blockLen - 1; i >= 0 && n > 0; i-- {
		n += uint64(v[i])
		v[i] = byte(n)
		n >>= 8
	}
}
