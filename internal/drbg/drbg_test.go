package drbg

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	mathrand "math/rand"
	"os"
	"testing"
)

// ---- independent reference implementation ----------------------------------
//
// refDRBG is a deliberately naive transcription of SP 800-90A §10.2.1
// (CTR_DRBG, AES-256, no derivation function): big.Int counter arithmetic,
// block-by-block ECB encryption, no cipher.NewCTR, no batching, no buffer
// reuse. It shares no code with the production path beyond the AES block
// primitive, so agreement between the two is evidence the batched CTR
// implementation — its counter stepping, its rekey placement, its buffer
// scrubbing — matches the spec pseudocode, not just itself.

type refDRBG struct {
	key []byte
	v   *big.Int
}

var refMod = new(big.Int).Lsh(big.NewInt(1), 128)

func newRefDRBG(entropy []byte) *refDRBG {
	r := &refDRBG{key: make([]byte, 32), v: big.NewInt(0)}
	r.update(entropy)
	return r
}

// update is CTR_DRBG_Update with optional provided data.
func (r *refDRBG) update(material []byte) {
	b, err := aes.NewCipher(r.key)
	if err != nil {
		panic(err)
	}
	var temp []byte
	for len(temp) < 48 {
		r.v.Add(r.v, big.NewInt(1)).Mod(r.v, refMod)
		block := make([]byte, 16)
		r.v.FillBytes(block)
		out := make([]byte, 16)
		b.Encrypt(out, block)
		temp = append(temp, out...)
	}
	temp = temp[:48]
	for i := range temp {
		if material != nil {
			temp[i] ^= material[i]
		}
	}
	r.key = append([]byte(nil), temp[:32]...)
	r.v = new(big.Int).SetBytes(temp[32:])
}

// generate is CTR_DRBG_Generate with no additional input.
func (r *refDRBG) generate(n int) []byte {
	b, err := aes.NewCipher(r.key)
	if err != nil {
		panic(err)
	}
	var out []byte
	for len(out) < n {
		r.v.Add(r.v, big.NewInt(1)).Mod(r.v, refMod)
		block := make([]byte, 16)
		r.v.FillBytes(block)
		enc := make([]byte, 16)
		b.Encrypt(enc, block)
		out = append(out, enc...)
	}
	out = out[:n]
	r.update(nil)
	return out
}

// refStream produces n bytes the way the production Read does: a sequence
// of batchLen-sized spec generates, concatenated.
func (r *refDRBG) refStream(n int) []byte {
	var out []byte
	for len(out) < n {
		out = append(out, r.generate(batchLen)...)
	}
	return out[:n]
}

// fixedEntropy is an entropy source yielding a caller-supplied script of
// reads, then failing.
type fixedEntropy struct {
	chunks [][]byte
	reads  int
}

func (f *fixedEntropy) Read(p []byte) (int, error) {
	if len(f.chunks) == 0 {
		return 0, errors.New("entropy script exhausted")
	}
	c := f.chunks[0]
	f.chunks = f.chunks[1:]
	f.reads++
	return copy(p, c), nil
}

func seed48(fill byte) []byte {
	s := make([]byte, seedLen)
	for i := range s {
		s[i] = fill ^ byte(i*37)
	}
	return s
}

// ---- differential: implementation vs reference -----------------------------

func TestReadMatchesReference(t *testing.T) {
	entropy := seed48(0xA5)
	d, err := NewWithEntropy(&fixedEntropy{chunks: [][]byte{entropy}})
	if err != nil {
		t.Fatal(err)
	}
	want := newRefDRBG(entropy).refStream(3 * batchLen)

	// Read in a ragged pattern chosen to cross batch boundaries mid-copy:
	// the 16 KiB refills happen at offsets that are not read boundaries.
	var got []byte
	sizes := []int{1, 7, 16, 33, 100, 1024, 4096, 8192, batchLen - 5, batchLen}
	for i := 0; len(got) < len(want); i++ {
		n := sizes[i%len(sizes)]
		if rem := len(want) - len(got); n > rem {
			n = rem
		}
		p := make([]byte, n)
		if _, err := io.ReadFull(d, p); err != nil {
			t.Fatalf("read %d after %d bytes: %v", n, len(got), err)
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("stream diverges from SP 800-90A reference at byte %d: got %#x want %#x", i, got[i], want[i])
			}
		}
	}
}

func TestDeterministicIsReproducible(t *testing.T) {
	a := NewDeterministic([]byte("split seed"))
	b := NewDeterministic([]byte("split seed"))
	c := NewDeterministic([]byte("other seed"))
	pa, pb, pc := make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)
	for _, rd := range []struct {
		r *DRBG
		p []byte
	}{{a, pa}, {b, pb}, {c, pc}} {
		if _, err := io.ReadFull(rd.r, rd.p); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("same seed produced different streams")
	}
	if bytes.Equal(pa, pc) {
		t.Fatal("different seeds produced the same stream")
	}
}

// ---- state hygiene ---------------------------------------------------------

func TestServedOutputIsScrubbed(t *testing.T) {
	d := NewDeterministic([]byte("scrub"))
	p := make([]byte, 1000)
	if _, err := io.ReadFull(d, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.off; i++ {
		if d.buf[i] != 0 {
			t.Fatalf("served byte %d still resident in state buffer", i)
		}
	}
	if bytes.Equal(p[:16], make([]byte, 16)) {
		t.Fatal("output is zero: scrub test is vacuous")
	}
}

func TestRekeyAcrossBatches(t *testing.T) {
	// The key must change at every batch boundary (backtracking
	// resistance); two consecutive batches must differ even under a
	// pathological all-zero state check.
	d := NewDeterministic([]byte("rekey"))
	k0 := d.key
	p := make([]byte, batchLen)
	if _, err := io.ReadFull(d, p); err != nil {
		t.Fatal(err)
	}
	k1 := d.key
	if k0 == k1 {
		t.Fatal("key unchanged across a generate batch")
	}
}

// ---- reseed policy ---------------------------------------------------------

func TestReseedOnInterval(t *testing.T) {
	src := &fixedEntropy{chunks: [][]byte{seed48(1), seed48(2), seed48(3)}}
	d, err := NewWithEntropy(src)
	if err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 {
		t.Fatalf("instantiate consumed %d entropy reads, want 1", src.reads)
	}
	p := make([]byte, 64*1024)
	for drawn := 0; drawn <= reseedAfter; drawn += len(p) {
		if _, err := io.ReadFull(d, p); err != nil {
			t.Fatal(err)
		}
	}
	if src.reads < 2 {
		t.Fatalf("no reseed after %d generated bytes", reseedAfter+len(p))
	}
}

func TestReseedOnFork(t *testing.T) {
	src := &fixedEntropy{chunks: [][]byte{seed48(1), seed48(2)}}
	d, err := NewWithEntropy(src)
	if err != nil {
		t.Fatal(err)
	}
	d.pid = os.Getpid() + 1 // simulate the child side of a fork
	p := make([]byte, batchLen+1)
	if _, err := io.ReadFull(d, p); err != nil {
		t.Fatal(err)
	}
	if src.reads != 2 {
		t.Fatalf("pid change did not force a reseed (%d entropy reads)", src.reads)
	}
	if d.pid != os.Getpid() {
		t.Fatal("reseed did not readopt the current pid")
	}
}

func TestDeterministicNeverReseeds(t *testing.T) {
	d := NewDeterministic([]byte("no entropy"))
	d.generated = reseedAfter + 1
	p := make([]byte, batchLen)
	if _, err := io.ReadFull(d, p); err != nil {
		t.Fatalf("deterministic instance tried to reseed: %v", err)
	}
}

// ---- error paths -----------------------------------------------------------

func TestEntropyFailureIsSentinel(t *testing.T) {
	_, err := NewWithEntropy(&fixedEntropy{})
	if !errors.Is(err, ErrEntropy) {
		t.Fatalf("instantiate error %v is not ErrEntropy", err)
	}

	// Mid-stream: deliver one seed, then fail at the interval reseed. The
	// bytes served before the failure must be counted.
	src := &fixedEntropy{chunks: [][]byte{seed48(9)}}
	d, err := NewWithEntropy(src)
	if err != nil {
		t.Fatal(err)
	}
	d.generated = reseedAfter // next refill must reseed, and will fail
	p := make([]byte, 2*batchLen)
	n, err := d.Read(p)
	if !errors.Is(err, ErrEntropy) {
		t.Fatalf("mid-stream entropy failure %v is not ErrEntropy", err)
	}
	if n != 0 {
		// The buffer was empty when the reseed fired, so nothing was
		// served first; a partial serve would have returned its count.
		t.Fatalf("short read returned n=%d", n)
	}
}

// ---- counter arithmetic ----------------------------------------------------

func TestCounterArithmetic(t *testing.T) {
	cases := []struct {
		start []byte
		add   uint64
	}{
		{bytes.Repeat([]byte{0}, 16), 1},
		{bytes.Repeat([]byte{0xff}, 16), 1},                                       // full wrap
		{append(bytes.Repeat([]byte{0}, 8), bytes.Repeat([]byte{0xff}, 8)...), 1}, // 64-bit carry
		{bytes.Repeat([]byte{0xfe}, 16), 1<<40 + 12345},
		{bytes.Repeat([]byte{0xff}, 16), 1 << 63},
	}
	for _, c := range cases {
		var v [blockLen]byte
		copy(v[:], c.start)
		addTo(&v, c.add)
		want := new(big.Int).SetBytes(c.start)
		want.Add(want, new(big.Int).SetUint64(c.add)).Mod(want, refMod)
		var w [blockLen]byte
		want.FillBytes(w[:])
		if v != w {
			t.Fatalf("addTo(%x, %d) = %x, want %x", c.start, c.add, v, w)
		}

		copy(v[:], c.start)
		incr(&v)
		want.SetBytes(c.start).Add(want, big.NewInt(1)).Mod(want, refMod)
		want.FillBytes(w[:])
		if v != w {
			t.Fatalf("incr(%x) = %x, want %x", c.start, v, w)
		}
	}
}

// ---- statistical smoke -----------------------------------------------------

// TestByteFrequencySmoke is the chi-square goodness-of-fit smoke check on a
// fixed deterministic stream: 1 MiB over 256 byte bins has 255 degrees of
// freedom, so the statistic concentrates at 255 ± 22.6; the accepted window
// below is ±5σ. The seed is fixed, so this is a regression tripwire for
// keystream damage (stuck counters, overlapping batches, scrub bleeding
// into live output), not a flaky randomness test.
func TestByteFrequencySmoke(t *testing.T) {
	d := NewDeterministic([]byte("chi-square smoke"))
	p := make([]byte, 1<<20)
	if _, err := io.ReadFull(d, p); err != nil {
		t.Fatal(err)
	}
	var counts [256]int
	ones := 0
	for _, b := range p {
		counts[b]++
		for x := b; x != 0; x &= x - 1 {
			ones++
		}
	}
	expected := float64(len(p)) / 256
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 < 140 || chi2 > 370 {
		t.Fatalf("byte-frequency chi-square %.1f outside [140, 370]", chi2)
	}
	bits := float64(len(p) * 8)
	if frac := float64(ones) / bits; frac < 0.499 || frac > 0.501 {
		t.Fatalf("monobit fraction %.5f outside [0.499, 0.501]", frac)
	}
}

// ---- allocation discipline -------------------------------------------------

func TestSteadyStateReadDoesNotAllocate(t *testing.T) {
	d := NewDeterministic([]byte("alloc pin"))
	warm := make([]byte, 1)
	if _, err := d.Read(warm); err != nil { // prime the batch buffer
		t.Fatal(err)
	}
	p := make([]byte, 1024)
	if avg := testing.AllocsPerRun(15, func() { // 15 KiB: stays inside the batch
		if _, err := d.Read(p); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Read allocates %.1f times per call, want 0", avg)
	}
}

func TestRefillAllocBudget(t *testing.T) {
	refillAllocs := func() float64 {
		d := NewDeterministic([]byte("refill pin"))
		p := make([]byte, batchLen)
		// Every Read below drains exactly one batch, so each run pays
		// one refill.
		return testing.AllocsPerRun(20, func() {
			if _, err := io.ReadFull(d, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if useVAES {
		// The schedule is a field of the state and the update encrypts
		// under it: nothing per refill.
		if avg := refillAllocs(); avg != 0 {
			t.Fatalf("VAES refill allocates %.1f times per batch, want 0", avg)
		}
	}
	forceCTR(t)
	// One AES key schedule (shared by the keystream and the rekey that
	// follows it) and one CTR stream over it, amortized over 16 KiB. The
	// budget leaves one for stdlib internals and catches a second cipher,
	// or a per-read or per-block allocation, creeping in.
	if avg := refillAllocs(); avg > 3 {
		t.Fatalf("cipher.NewCTR refill allocates %.1f times per batch, budget 3", avg)
	}
}

// ---- the VAES keystream against the stdlib ---------------------------------

// forceCTR puts every refill on the cipher.NewCTR path until the test ends.
func forceCTR(t *testing.T) {
	t.Helper()
	prev := useVAES
	useVAES = false
	t.Cleanup(func() { useVAES = prev })
}

// TestVAESKeystreamMatchesCTR checks one refill against cipher.NewCTR from
// V+1: the 16 KiB batch is the first batchLen bytes of that keystream and
// the update's new key and counter are the next 48, so a refill is exactly
// keystream bytes [0, batchLen+seedLen) whichever path produced it. Counters
// whose low qword would wrap inside the refill must take the fallback and
// still match, including the full 128-bit wrap.
func TestVAESKeystreamMatchesCTR(t *testing.T) {
	t.Logf("VAES keystream active: %v", useVAES)
	rng := mathrand.New(mathrand.NewSource(11))
	type counter struct {
		name   string
		hi, lo uint64
		vaes   bool // whether the VAES path covers the refill
	}
	cases := []counter{
		{"last low qword that fits", rng.Uint64(), math.MaxUint64 - refillBlocks, true},
		{"update block wraps", rng.Uint64(), math.MaxUint64 - refillBlocks + 1, false},
		{"batch wraps midway", rng.Uint64(), math.MaxUint64 - 500, false},
		{"first block carries into high qword", rng.Uint64(), math.MaxUint64, false},
		{"128-bit wrap", math.MaxUint64, math.MaxUint64 - 10, false},
		{"zero counter", 0, 0, true},
	}
	for i := 0; i < 8; i++ {
		cases = append(cases, counter{fmt.Sprintf("random %d", i), rng.Uint64(), rng.Uint64() >> 1, true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &DRBG{off: batchLen}
			rng.Read(d.key[:])
			binary.BigEndian.PutUint64(d.v[:8], c.hi)
			binary.BigEndian.PutUint64(d.v[8:], c.lo)
			if got := vaesCovers(&d.v); got != c.vaes {
				t.Fatalf("vaesCovers(%x) = %v, want %v", d.v, got, c.vaes)
			}

			block, err := aes.NewCipher(d.key[:])
			if err != nil {
				t.Fatal(err)
			}
			iv := d.v
			incr(&iv)
			want := make([]byte, batchLen+seedLen)
			cipher.NewCTR(block, iv[:]).XORKeyStream(want, want)

			if err := d.refill(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.buf[:], want[:batchLen]) {
				t.Fatal("batch keystream differs from cipher.NewCTR")
			}
			if !bytes.Equal(d.key[:], want[batchLen:batchLen+keyLen]) || !bytes.Equal(d.v[:], want[batchLen+keyLen:]) {
				t.Fatal("update's key and counter differ from cipher.NewCTR")
			}
			if d.sched != [schedLen]byte{} || d.temp != [seedLen]byte{} {
				t.Fatal("key schedule or update block left in state after refill")
			}
		})
	}
}

// TestRefillPathsAgree runs two instances from the same scripted entropy,
// one with the VAES path available and one forced onto cipher.NewCTR, for
// five batches with an interval reseed between the second and the third.
func TestRefillPathsAgree(t *testing.T) {
	stream := func() []byte {
		d, err := NewWithEntropy(&fixedEntropy{chunks: [][]byte{seed48(0x3c), seed48(0x5a)}})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 5*batchLen)
		for b := 0; b < 5; b++ {
			if b == 2 {
				d.generated = reseedAfter
			}
			if _, err := io.ReadFull(d, out[b*batchLen:(b+1)*batchLen]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	fast := stream()
	forceCTR(t)
	if slow := stream(); !bytes.Equal(fast, slow) {
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("refill paths diverge at byte %d (batch %d)", i, i/batchLen)
			}
		}
	}
}
