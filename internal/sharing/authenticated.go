package sharing

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"

	"remicss/internal/slotpool"
)

// Authenticated wraps another scheme and appends an HMAC-SHA256 tag to
// every share, keyed by a pre-shared session key. Combine verifies each
// share's tag before reconstruction, so a corrupted or forged share is
// identified and rejected instead of silently producing garbage — plain
// threshold schemes reconstruct *some* polynomial from any k points.
//
// This addresses the active-adversary gap the paper leaves to the PSMT
// literature: confidentiality is information-theoretic from the threshold
// scheme; integrity here is computational (HMAC).
//
// The tag covers the share index and payload. Shares are tagLen bytes
// longer than the inner scheme's.
type Authenticated struct {
	inner Scheme
	key   []byte //remicss:secret
	macs  slotpool.Pool[macState]
}

// macState is one caller's keyed HMAC-SHA256 with the buffers a tag needs.
// Reset restores the keyed state (hmac keeps the post-ipad and post-opad
// SHA-256 states after the first use) without allocating or rehashing the
// pads, so a state built once tags every later share of its caller.
type macState struct {
	mac hash.Hash         //remicss:secret
	idx [4]byte           // big-endian share index, the MAC's first input //remicss:secret
	sum [sha256.Size]byte // full digest; the tag is its first tagLen bytes //remicss:secret

	// stripped is CombineInto's view of the shares without their tags. It
	// is handed to the inner scheme through an interface, so a local array
	// would be heap-allocated per call; it aliases the caller's buffers only
	// while the combine runs.
	stripped []Share //remicss:secret
}

// getMAC claims a keyed state for one Split or Combine call.
func (a *Authenticated) getMAC() *macState {
	if st := a.macs.Get(); st != nil {
		return st
	}
	return &macState{mac: hmac.New(sha256.New, a.key)}
}

// putMAC returns a state claimed by getMAC, first dropping its references to
// the caller's share buffers.
func (a *Authenticated) putMAC(st *macState) {
	clear(st.stripped)
	a.macs.Put(st)
}

// tag computes the share's tag into st and returns it; the result is valid
// until st's next use.
//
//remicss:noalloc
func (st *macState) tag(index int, data []byte) []byte {
	st.idx[0] = byte(index >> 24)
	st.idx[1] = byte(index >> 16)
	st.idx[2] = byte(index >> 8)
	st.idx[3] = byte(index)
	st.mac.Reset()
	st.mac.Write(st.idx[:])
	st.mac.Write(data)
	return st.mac.Sum(st.sum[:0])[:tagLen]
}

// tagLen is the truncated HMAC-SHA256 tag length appended to each share.
// 16 bytes keeps per-share overhead low at a 128-bit forgery bound.
const tagLen = 16

// ErrShareForged marks shares whose authentication tag does not verify.
var ErrShareForged = errors.New("sharing: share authentication failed")

// NewAuthenticated wraps inner with per-share authentication under key.
// The key must be non-empty and shared by sender and receiver.
func NewAuthenticated(inner Scheme, key []byte) (*Authenticated, error) {
	if inner == nil {
		return nil, errors.New("sharing: nil inner scheme")
	}
	if len(key) == 0 {
		return nil, errors.New("sharing: empty authentication key")
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Authenticated{inner: inner, key: k}, nil
}

// Name implements Scheme.
func (a *Authenticated) Name() string {
	return "authenticated-" + a.inner.Name()
}

// Split implements Scheme: inner split, then tag each share.
//
//remicss:secret secret
func (a *Authenticated) Split(secret []byte, k, m int) ([]Share, error) {
	return a.SplitSharesInto(secret, k, m, nil)
}

// Combine implements Scheme: verify and strip each tag, then reconstruct
// with the inner scheme. The first share failing verification aborts with
// ErrShareForged identifying its index.
func (a *Authenticated) Combine(shares []Share, k, m int) ([]byte, error) {
	return a.CombineInto(nil, shares, k, m)
}

// CombineDiscarding is like Combine but tolerates forged shares when more
// than k shares are supplied: it drops shares that fail verification and
// reconstructs from the first k that verify. It returns the indices of the
// discarded shares alongside the secret.
func (a *Authenticated) CombineDiscarding(shares []Share, k, m int) ([]byte, []int, error) {
	var good []Share
	var bad []int
	st := a.getMAC()
	defer a.putMAC(st)
	for _, s := range shares {
		if len(s.Data) < tagLen+1 {
			bad = append(bad, s.Index)
			continue
		}
		data := s.Data[:len(s.Data)-tagLen]
		tag := s.Data[len(s.Data)-tagLen:]
		if !hmac.Equal(tag, st.tag(s.Index, data)) {
			bad = append(bad, s.Index)
			continue
		}
		good = append(good, Share{Index: s.Index, Data: data})
	}
	if len(good) < k {
		return nil, bad, fmt.Errorf("%w: only %d of %d shares verified", ErrShareForged, len(good), k)
	}
	secret, err := a.inner.Combine(good[:k], k, m)
	if err != nil {
		return nil, bad, err
	}
	return secret, bad, nil
}
