package drbg

import "remicss/internal/slotpool"

// Pool is the concurrent front door over single-caller DRBG states, kept in
// a slotpool.Pool like every other per-caller working set. Each Read borrows
// a whole state, so concurrent callers never interleave inside one keystream
// and the per-state buffers stay single-writer.
//
// The zero Pool is ready to use and seeds states from crypto/rand.
type Pool struct {
	states slotpool.Pool[DRBG]

	// newState overrides how replacement states are built; tests install
	// deterministic constructors here. nil means New (crypto/rand-seeded).
	newState func() (*DRBG, error)
}

// Shared is the process-wide pool: the default randomness source for
// splitters and pad draws, standing in for crypto/rand.Reader at the same
// call sites with the same io.Reader shape.
var Shared = &Pool{}

// NewPool returns a pool building its states with newState instead of New,
// so tests can route a deterministic or failing generator through code that
// only accepts an io.Reader.
func NewPool(newState func() (*DRBG, error)) *Pool {
	return &Pool{newState: newState}
}

// Read fills p with keystream from a borrowed state. Safe for concurrent
// use. A state whose reseed fails is discarded, not recycled, so one
// entropy outage cannot wedge a poisoned generator into the rotation.
//
//remicss:noalloc
func (p *Pool) Read(b []byte) (int, error) {
	d, err := p.get()
	if err != nil {
		return 0, err
	}
	n, err := d.Read(b)
	if err != nil {
		return n, err
	}
	p.states.Put(d)
	return n, nil
}

// get claims a pooled state or builds a fresh one.
func (p *Pool) get() (*DRBG, error) {
	if d := p.states.Get(); d != nil {
		return d, nil
	}
	if p.newState != nil {
		return p.newState()
	}
	return New()
}
