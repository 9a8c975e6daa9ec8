// Package sharing abstracts over secret sharing schemes used by the
// multichannel protocol.
//
// The protocol model (internal/core) is scheme-agnostic: it only assumes a
// (k, m) threshold scheme in which each share carries as much information as
// the secret (H(Y) = H(X), the optimal case discussed in Section III-C of
// the paper). Three implementations are provided:
//
//   - Shamir: general k-of-m threshold sharing (internal/shamir).
//   - XOR: the "perfect" m-of-m scheme used by MICSS — m-1 random pads and
//     one pad-XOR-secret share. Only valid for k == m.
//   - Replication: the degenerate k=1 scheme — every share is a copy.
//
// Auto selects the cheapest correct scheme per (k, m): Replication at k=1,
// XOR at k=m, Shamir otherwise. The ablation benchmark in the repository
// root quantifies the cost of running Shamir everywhere instead.
package sharing

import (
	"errors"
	"fmt"
	"io"

	"remicss/internal/drbg"
	"remicss/internal/shamir"
	"remicss/internal/slotpool"
)

// Errors shared by scheme implementations.
var (
	ErrInvalidParams  = errors.New("sharing: invalid parameters")
	ErrEmptySecret    = errors.New("sharing: empty secret")
	ErrTooFewShares   = errors.New("sharing: not enough shares")
	ErrShareMismatch  = errors.New("sharing: inconsistent share lengths")
	ErrDuplicateIndex = errors.New("sharing: duplicate share index")
	ErrUnsupported    = errors.New("sharing: parameters unsupported by scheme")
)

// Share is one share of a secret, tagged with its index within the split
// (0-based, unique per split).
type Share struct {
	Index int
	Data  []byte //remicss:secret
}

// Scheme is a (k, m) threshold secret sharing scheme. Split produces m
// shares of which any k reconstruct the secret via Combine with the same k.
type Scheme interface {
	// Name identifies the scheme for logs and benchmarks.
	Name() string
	// Split shares secret into m shares with threshold k.
	Split(secret []byte, k, m int) ([]Share, error)
	// Combine reconstructs a secret from at least k shares produced by a
	// Split with threshold k and multiplicity m.
	Combine(shares []Share, k, m int) ([]byte, error)
}

func validate(secret []byte, k, m int) error {
	if k < 1 || m < k {
		return fmt.Errorf("%w: k=%d, m=%d", ErrInvalidParams, k, m)
	}
	if len(secret) == 0 {
		return ErrEmptySecret
	}
	return nil
}

// Shamir adapts internal/shamir to the Scheme interface. The zero value uses
// the shared DRBG pool; NewShamir allows injecting a deterministic source.
type Shamir struct {
	splitter *shamir.Splitter
}

// shamirHeaders is the []shamir.Share view of one split's share buffers.
// Its Y slices alias the caller's buffers only while the split runs.
type shamirHeaders struct {
	raw []shamir.Share //remicss:secret
}

// headersPool gives each concurrent split its own headers, whichever scheme
// instance it runs through. Schemes keep per-call state in a pool and never
// in a bare field: the receiver's reader goroutines combine through one
// scheme instance concurrently.
var headersPool slotpool.Pool[shamirHeaders]

// NewShamir returns a Shamir scheme drawing randomness from r (nil means
// the shared DRBG pool, drbg.Shared).
func NewShamir(r io.Reader) *Shamir {
	return &Shamir{splitter: shamir.NewSplitter(r)}
}

// Name implements Scheme.
func (s *Shamir) Name() string { return "shamir" }

// Split implements Scheme.
//
//remicss:secret secret
func (s *Shamir) Split(secret []byte, k, m int) ([]Share, error) {
	return s.SplitSharesInto(secret, k, m, nil)
}

// Combine implements Scheme.
func (s *Shamir) Combine(shares []Share, k, m int) ([]byte, error) {
	return s.CombineInto(nil, shares, k, m)
}

// XOR is the perfect m-of-m scheme: shares 0..m-2 are uniform random pads
// and share m-1 is the secret XORed with all pads. It only supports k == m,
// the MICSS configuration.
type XOR struct {
	rand io.Reader //remicss:secret
}

// NewXOR returns an XOR scheme drawing pads from r (nil means the shared
// DRBG pool, drbg.Shared).
func NewXOR(r io.Reader) *XOR {
	if r == nil {
		r = drbg.Shared
	}
	return &XOR{rand: r}
}

// Name implements Scheme.
func (x *XOR) Name() string { return "xor" }

// Split implements Scheme.
//
//remicss:secret secret
func (x *XOR) Split(secret []byte, k, m int) ([]Share, error) {
	return x.SplitSharesInto(secret, k, m, nil)
}

// Combine implements Scheme.
func (x *XOR) Combine(shares []Share, k, m int) ([]byte, error) {
	return x.CombineInto(nil, shares, k, m)
}

// Replication is the degenerate k=1 scheme: every share is a copy of the
// secret. It provides no confidentiality and maximal loss resilience; it is
// the correct fast path when the schedule picks k=1.
type Replication struct{}

// Name implements Scheme.
func (Replication) Name() string { return "replication" }

// Split implements Scheme.
//
//remicss:secret secret
func (r Replication) Split(secret []byte, k, m int) ([]Share, error) {
	return r.SplitSharesInto(secret, k, m, nil)
}

// Combine implements Scheme.
func (r Replication) Combine(shares []Share, k, m int) ([]byte, error) {
	return r.CombineInto(nil, shares, k, m)
}

// Auto dispatches to the cheapest correct scheme for each (k, m):
// Replication at k=1, XOR at k=m (and k>1), Shamir otherwise.
type Auto struct {
	shamir *Shamir
	xor    *XOR
	repl   Replication
}

// NewAuto returns an Auto scheme drawing randomness from r (nil means
// the shared DRBG pool, drbg.Shared).
func NewAuto(r io.Reader) *Auto {
	return &Auto{shamir: NewShamir(r), xor: NewXOR(r)}
}

// Name implements Scheme.
func (a *Auto) Name() string { return "auto" }

func (a *Auto) pick(k, m int) Scheme {
	switch {
	case k == 1:
		return a.repl
	case k == m:
		return a.xor
	default:
		return a.shamir
	}
}

// Split implements Scheme.
//
//remicss:secret secret
func (a *Auto) Split(secret []byte, k, m int) ([]Share, error) {
	return a.SplitSharesInto(secret, k, m, nil)
}

// Combine implements Scheme.
func (a *Auto) Combine(shares []Share, k, m int) ([]byte, error) {
	return a.CombineInto(nil, shares, k, m)
}

// ShareOverhead reports the per-share byte overhead a scheme adds on top of
// the secret length for the given parameters. Shamir shares carry one extra
// x-coordinate byte; XOR and replication add nothing.
func ShareOverhead(s Scheme, k, m int) int {
	switch s.(type) {
	case *Shamir:
		return 1
	case *Auto:
		if k > 1 && k < m {
			return 1
		}
		return 0
	default:
		return 0
	}
}
