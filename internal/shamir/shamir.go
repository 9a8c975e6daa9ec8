// Package shamir implements Shamir's (k, m) threshold secret sharing scheme
// over GF(2^8), as introduced in "How to share a secret" (Shamir, 1979).
//
// A secret of L bytes is split into m shares. Each share is L+1 bytes: a
// one-byte x-coordinate followed by L y-coordinate bytes, one per secret
// byte. Any k shares reconstruct the secret exactly; any k-1 shares reveal
// no information about it (information-theoretic secrecy).
//
// This is the threshold scheme the ReMICSS protocol model parameterizes with
// multiplicity m and threshold k; see internal/core for the model itself.
package shamir

import (
	"errors"
	"fmt"
	"io"

	"remicss/internal/drbg"
	"remicss/internal/gf256"
	"remicss/internal/slotpool"
)

// MaxShares is the maximum multiplicity supported by the byte-wise scheme:
// x-coordinates are nonzero field elements, of which there are 255.
const MaxShares = 255

// Errors returned by SplitInto and CombineInto. They are sentinel values so
// callers can classify failures with errors.Is.
var (
	ErrInvalidParams   = errors.New("shamir: invalid parameters")
	ErrEmptySecret     = errors.New("shamir: empty secret")
	ErrTooFewShares    = errors.New("shamir: not enough shares to reconstruct")
	ErrShareMismatch   = errors.New("shamir: shares have inconsistent lengths")
	ErrDuplicateShare  = errors.New("shamir: duplicate share x-coordinate")
	ErrMalformedShare  = errors.New("shamir: malformed share")
	ErrZeroCoordinate  = errors.New("shamir: share has zero x-coordinate")
	ErrRandomShortfall = errors.New("shamir: could not read random coefficients")
)

// Share is a single Shamir share: X is the evaluation point (nonzero), and Y
// holds one field element per secret byte.
type Share struct {
	X byte
	Y []byte //remicss:secret
}

// Splitter creates shares with a caller-supplied randomness source, which
// makes splitting deterministic under test. The zero value is not usable;
// construct with NewSplitter. A Splitter is safe for concurrent use when its
// randomness source is.
type Splitter struct {
	rand io.Reader //remicss:secret
}

// splitScratch is one split's random coefficient block.
type splitScratch struct {
	random []byte //remicss:secret
}

// scratchPool holds the coefficient blocks of every splitter in the process
// between splits. A block is zeroed before it comes back, so the pool holds
// no coefficients at rest.
var scratchPool slotpool.Pool[splitScratch]

// getScratch claims a coefficient block for one SplitInto call.
func getScratch() *splitScratch {
	if sc := scratchPool.Get(); sc != nil {
		return sc
	}
	return new(splitScratch)
}

// putScratch zeroes a block claimed by getScratch and returns it.
func putScratch(sc *splitScratch) {
	clear(sc.random)
	scratchPool.Put(sc)
}

// NewSplitter returns a Splitter drawing coefficients from r. If r is nil,
// the process-wide DRBG pool (drbg.Shared) is used: a batched AES-CTR
// generator seeded from — and periodically reseeded from — crypto/rand,
// several times faster than reading the kernel per split.
func NewSplitter(r io.Reader) *Splitter {
	if r == nil {
		r = drbg.Shared
	}
	return &Splitter{rand: r}
}

// SplitInto shares the secret into m shares with reconstruction threshold k,
// assigning x-coordinates 1..m. It writes into caller-provided share
// storage: the shares slice is resized to m and each share's Y buffer is
// reused when its capacity suffices, so a caller cycling the same slice
// through repeated splits reaches a steady state of no allocation. Passing
// nil shares allocates fresh ones. The caller owns the share buffers before
// and after; the splitter keeps only its own scratch, the random coefficient
// block, which it zeroes before the call returns.
//
// Requirements: 1 <= k <= m <= MaxShares and len(secret) > 0.
//
// The split is evaluated block-wise: one random polynomial of degree k-1 per
// secret byte, all evaluated together with the gf256 slice kernels — share i
// is Horner-accumulated as Y = ((c_{k-1}·x + c_{k-2})·x + ...)·x + secret
// where each coefficient c_j is a whole random slice. This is the same
// polynomial family as the byte-wise code it replaced (the coefficients are
// merely drawn in coefficient-major rather than byte-major order) and
// several times faster.
//
// Evaluation is cache-tiled: the secret is walked in splitTileBytes windows,
// and within each window every share is produced before moving on, so the
// k coefficient tiles stay L1-resident while all m shares consume them
// (gf256.HornerBlock). The tiled traversal performs the identical sequence
// of field operations per byte as a share-major pass, so the output is
// byte-for-byte the same — a property the differential tests pin, because
// published leakage analyses of Shamir sharing assume the reference scheme
// exactly.
//
//remicss:noalloc
//remicss:secret secret
func (sp *Splitter) SplitInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	if k < 1 || m < k || m > MaxShares {
		return nil, fmt.Errorf("%w: k=%d, m=%d", ErrInvalidParams, k, m)
	}
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}

	shares = growShares(shares, m)
	for i := range shares {
		shares[i].X = byte(i + 1)
		shares[i].Y = growBytes(shares[i].Y, len(secret))
	}

	if k == 1 {
		// Degree-0 polynomials: every share is the secret itself.
		for i := range shares {
			copy(shares[i].Y, secret)
		}
		return shares, nil
	}

	// random holds coefficients 1..k-1 as contiguous slices of len(secret)
	// bytes each: coefficient j for secret byte b is random[(j-1)*L+b].
	// Together with any share the coefficients determine the secret, so the
	// scratch block is inside the secret perimeter and putScratch zeroes it
	// on every path out.
	sc := getScratch()
	defer putScratch(sc)
	sc.random = growBytes(sc.random, (k-1)*len(secret))
	//remicss:secret
	random := sc.random
	if _, err := io.ReadFull(sp.rand, random); err != nil {
		// Both sentinels stay in the chain: callers classify the failure
		// as a shamir shortfall or drill to the source's own sentinel
		// (e.g. drbg.ErrEntropy) with errors.Is alike.
		return nil, fmt.Errorf("%w: %w", ErrRandomShortfall, err)
	}
	L := len(secret)
	// Horner coefficient blocks, highest degree first, constant term (the
	// secret) last: c_{k-1} = random[(k-2)L:(k-1)L], ..., c_1 = random[0:L].
	// A fixed-size array keeps this off the heap (k <= MaxShares).
	var blocks [MaxShares][]byte //remicss:secret
	nb := 0
	for j := k - 1; j >= 1; j-- {
		blocks[nb] = random[(j-1)*L : j*L]
		nb++
	}
	blocks[nb] = secret
	nb++
	for lo := 0; lo < L; lo += splitTileBytes {
		hi := lo + splitTileBytes
		if hi > L {
			hi = L
		}
		for i := range shares {
			gf256.HornerBlock(shares[i].Y, shares[i].X, blocks[:nb], lo, hi)
		}
	}
	return shares, nil
}

// splitTileBytes is the tile width of the loop-interchanged split: small
// enough that the k coefficient tiles plus one share tile stay L1-resident
// at the largest supported thresholds, large enough to amortize the per-call
// overhead of the fused kernel.
const splitTileBytes = 4096

// growShares resizes s to length n, reusing its backing array (and the Y
// buffers of existing elements) when capacity allows.
func growShares(s []Share, n int) []Share {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]Share, n)
	copy(out, s[:cap(s)])
	return out
}

// growBytes resizes b to length n, reusing its backing array when capacity
// allows.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// CombineInto reconstructs a secret from at least k shares produced by
// SplitInto with threshold k, writing it into dst, which is resized (reusing
// capacity) to the share length and returned. Passing nil dst allocates the
// result, which is then this function's only allocation. More than k shares
// are fine; all are interpolated over, which does not detect corrupted
// shares. CombineInto fails if shares disagree on length, duplicate an
// x-coordinate, or include a zero x-coordinate.
//
// Reconstruction is block-wise: the Lagrange basis weight at zero
// w_i = Π_{j≠i} x_j / (x_i + x_j) is computed once per share, and the secret
// is accumulated as Σ w_i · Y_i with the gf256 scaled-accumulate kernel —
// algebraically identical to interpolating each byte position separately.
//
//remicss:noalloc
func CombineInto(dst []byte, shares []Share) ([]byte, error) {
	if len(shares) == 0 {
		return nil, ErrTooFewShares
	}
	if len(shares) > MaxShares {
		return nil, fmt.Errorf("%w: %d shares exceeds %d distinct x-coordinates",
			ErrDuplicateShare, len(shares), MaxShares)
	}
	length := len(shares[0].Y)
	if length == 0 {
		return nil, ErrMalformedShare
	}
	var xs [MaxShares]byte
	var seen [256]bool
	for i, s := range shares {
		if s.X == 0 {
			return nil, ErrZeroCoordinate
		}
		if len(s.Y) != length {
			return nil, fmt.Errorf("%w: share %d has %d bytes, share 0 has %d",
				ErrShareMismatch, i, len(s.Y), length)
		}
		if seen[s.X] {
			return nil, fmt.Errorf("%w: x=%d", ErrDuplicateShare, s.X)
		}
		seen[s.X] = true
		xs[i] = s.X
	}

	dst = growBytes(dst, length)
	clear(dst)
	for i := range shares {
		num, den := byte(1), byte(1)
		for j := range shares {
			if i == j {
				continue
			}
			num = gf256.Mul(num, xs[j]) // 0 - x_j == x_j
			den = gf256.Mul(den, gf256.Sub(xs[i], xs[j]))
		}
		gf256.AddMulSlice(dst, shares[i].Y, gf256.Div(num, den))
	}
	return dst, nil
}
