package sharing

import (
	"fmt"
	"io"

	"remicss/internal/blakley"
)

// Blakley adapts Blakley's hyperplane threshold scheme to the Scheme
// interface. It is interchangeable with Shamir in the protocol; its shares
// are k bytes longer (each carries its hyperplane's coefficient vector),
// which the scheme-comparison benchmarks quantify.
type Blakley struct {
	splitter *blakley.Splitter
}

// NewBlakley returns a Blakley scheme drawing randomness from r (nil means
// the shared DRBG pool, drbg.Shared).
func NewBlakley(r io.Reader) *Blakley {
	return &Blakley{splitter: blakley.NewSplitter(r)}
}

// Name implements Scheme.
func (b *Blakley) Name() string { return "blakley" }

// Split implements Scheme.
//
//remicss:secret secret
func (b *Blakley) Split(secret []byte, k, m int) ([]Share, error) {
	if err := validate(secret, k, m); err != nil {
		return nil, err
	}
	sp := b.splitter
	if sp == nil {
		sp = blakley.NewSplitter(nil)
	}
	raw, err := sp.Split(secret, k, m)
	if err != nil {
		return nil, fmt.Errorf("sharing: %w", err)
	}
	shares := make([]Share, m)
	for i, r := range raw {
		shares[i] = Share{Index: i, Data: r.Bytes()}
	}
	return shares, nil
}

// Combine implements Scheme.
func (b *Blakley) Combine(shares []Share, k, m int) ([]byte, error) {
	if err := checkShares(shares, k); err != nil {
		return nil, err
	}
	raw := make([]blakley.Share, 0, k)
	for _, sh := range shares[:k] {
		p, err := blakley.ParseShare(sh.Data, k)
		if err != nil {
			return nil, fmt.Errorf("sharing: %w", err)
		}
		raw = append(raw, p)
	}
	secret, err := blakley.Combine(raw, k)
	if err != nil {
		return nil, fmt.Errorf("sharing: %w", err)
	}
	return secret, nil
}
