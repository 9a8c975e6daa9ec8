package sharing

import (
	"bytes"
	"crypto/hmac"
	"fmt"
	"io"

	"remicss/internal/drbg"
	"remicss/internal/gf256"
	"remicss/internal/shamir"
)

// IntoScheme is the allocation-aware extension of Scheme: the same
// operations writing into caller-provided storage so a steady-state sender
// or receiver can cycle one set of buffers instead of allocating per symbol.
// Every scheme in this package implements it, and (Blakley apart) their
// Split and Combine are these methods called with nil storage; SplitInto
// and CombineInto (package-level) adapt any remaining Scheme by falling
// back to the allocating methods.
type IntoScheme interface {
	Scheme
	// SplitSharesInto splits secret into m shares with threshold k, resizing
	// shares to length m and reusing each element's Data capacity. The
	// returned slice must be used in place of the input (append semantics).
	SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error)
	// CombineInto reconstructs the secret into dst (resized, capacity
	// reused) and returns it. Passing nil dst allocates the result.
	CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error)
}

// Every scheme in this package supports the into path.
var (
	_ IntoScheme = (*Shamir)(nil)
	_ IntoScheme = (*XOR)(nil)
	_ IntoScheme = Replication{}
	_ IntoScheme = (*Blakley)(nil)
	_ IntoScheme = (*Authenticated)(nil)
	_ IntoScheme = (*Auto)(nil)
)

// SplitInto dispatches to s's SplitSharesInto when implemented and falls
// back to Split otherwise, so callers can target the into API uniformly.
//
//remicss:noalloc
//remicss:secret secret
func SplitInto(s Scheme, secret []byte, k, m int, shares []Share) ([]Share, error) {
	if is, ok := s.(IntoScheme); ok {
		return is.SplitSharesInto(secret, k, m, shares)
	}
	return s.Split(secret, k, m)
}

// CombineInto dispatches to s's CombineInto when implemented and falls back
// to Combine otherwise.
//
//remicss:noalloc
func CombineInto(s Scheme, dst []byte, shares []Share, k, m int) ([]byte, error) {
	if is, ok := s.(IntoScheme); ok {
		return is.CombineInto(dst, shares, k, m)
	}
	return s.Combine(shares, k, m)
}

// growShares resizes s to length n, reusing the backing array (and the Data
// buffers of surviving elements) when capacity allows.
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

// checkShares validates count, index uniqueness, and length agreement
// without allocating (indexes outside [0, 255] — impossible for shares that
// traveled the wire, whose index field is a byte — fall back to a scan).
func checkShares(shares []Share, k int) error {
	if len(shares) < k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), k)
	}
	var seen [256]bool
	for i, s := range shares {
		if s.Index < 0 || s.Index > 255 {
			for j := 0; j < i; j++ {
				if shares[j].Index == s.Index {
					return fmt.Errorf("%w: index %d", ErrDuplicateIndex, s.Index)
				}
			}
		} else {
			if seen[s.Index] {
				return fmt.Errorf("%w: index %d", ErrDuplicateIndex, s.Index)
			}
			seen[s.Index] = true
		}
		if len(s.Data) != len(shares[0].Data) {
			return ErrShareMismatch
		}
	}
	return nil
}

// SplitSharesInto implements IntoScheme: the shares carry the shamir wire
// form (x-coordinate byte followed by the y bytes) built block-wise in the
// reused Data buffers. The caller owns those buffers throughout; the scheme
// keeps only pooled scratch (the share headers here, the coefficient block
// in the splitter), so the steady state allocates nothing.
//
//remicss:noalloc
func (s *Shamir) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	if err := validate(secret, k, m); err != nil {
		return nil, err
	}
	sp := s.splitter
	if sp == nil {
		sp = shamir.NewSplitter(nil)
	}
	shares = growShares(shares, m)
	h := headersPool.Get()
	if h == nil {
		h = new(shamirHeaders) //lint:allow noalloc first call per concurrent caller; pooled afterwards
	}
	if cap(h.raw) < m {
		h.raw = make([]shamir.Share, m) //lint:allow noalloc grows to the largest m seen; pooled afterwards
	}
	raw := h.raw[:m]
	for i := range shares {
		shares[i].Index = i
		shares[i].Data = growBytes(shares[i].Data, 1+len(secret))
		// The shamir layer writes y bytes directly into the wire buffer.
		raw[i].Y = shares[i].Data[1:]
	}
	out, err := sp.SplitInto(secret, k, m, raw)
	for i := range out {
		shares[i].Data[0] = out[i].X
	}
	clear(raw) // the pooled headers must not keep the caller's buffers reachable
	headersPool.Put(h)
	if err != nil {
		return nil, fmt.Errorf("sharing: %w", err)
	}
	return shares, nil
}

// CombineInto implements IntoScheme: shares are consumed in wire form
// without copying their y bytes.
//
//remicss:noalloc
func (s *Shamir) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	if err := checkShares(shares, k); err != nil {
		return nil, err
	}
	var raw [shamir.MaxShares]shamir.Share
	if k > len(raw) {
		return nil, fmt.Errorf("%w: k=%d", ErrInvalidParams, k)
	}
	for i, sh := range shares[:k] {
		if len(sh.Data) < 2 {
			return nil, fmt.Errorf("sharing: %w", shamir.ErrMalformedShare)
		}
		raw[i] = shamir.Share{X: sh.Data[0], Y: sh.Data[1:]}
	}
	out, err := shamir.CombineInto(dst, raw[:k])
	if err != nil {
		return nil, fmt.Errorf("sharing: %w", err)
	}
	return out, nil
}

// SplitSharesInto implements IntoScheme: pads are drawn directly into the
// reused share buffers and folded into the final share with the XOR kernel,
// so the steady state allocates nothing.
//
//remicss:noalloc
func (x *XOR) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	if err := validate(secret, k, m); err != nil {
		return nil, err
	}
	if k != m {
		return nil, fmt.Errorf("%w: xor requires k == m (got k=%d, m=%d)", ErrUnsupported, k, m)
	}
	r := x.rand
	if r == nil {
		r = drbg.Shared
	}
	shares = growShares(shares, m)
	for i := range shares {
		shares[i].Index = i
		shares[i].Data = growBytes(shares[i].Data, len(secret))
	}
	last := shares[m-1].Data
	copy(last, secret)
	for i := 0; i < m-1; i++ {
		pad := shares[i].Data
		if _, err := io.ReadFull(r, pad); err != nil {
			return nil, fmt.Errorf("sharing: reading pad: %w", err)
		}
		gf256.AddSlice(last, pad)
	}
	return shares, nil
}

// CombineInto implements IntoScheme.
//
//remicss:noalloc
func (x *XOR) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	if k != m {
		return nil, fmt.Errorf("%w: xor requires k == m (got k=%d, m=%d)", ErrUnsupported, k, m)
	}
	if err := checkShares(shares, k); err != nil {
		return nil, err
	}
	dst = growBytes(dst, len(shares[0].Data))
	copy(dst, shares[0].Data)
	for _, s := range shares[1:] {
		gf256.AddSlice(dst, s.Data)
	}
	return dst, nil
}

// SplitSharesInto implements IntoScheme: copies into reused buffers, the
// zero-allocation steady state of the k=1 fast path.
//
//remicss:noalloc
func (Replication) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	if err := validate(secret, k, m); err != nil {
		return nil, err
	}
	if k != 1 {
		return nil, fmt.Errorf("%w: replication requires k == 1 (got k=%d)", ErrUnsupported, k)
	}
	shares = growShares(shares, m)
	for i := range shares {
		shares[i].Index = i
		shares[i].Data = growBytes(shares[i].Data, len(secret))
		copy(shares[i].Data, secret)
	}
	return shares, nil
}

// CombineInto implements IntoScheme.
//
//remicss:noalloc
func (r Replication) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	if k != 1 {
		return nil, fmt.Errorf("%w: replication requires k == 1 (got k=%d)", ErrUnsupported, k)
	}
	if err := checkShares(shares, 1); err != nil {
		return nil, err
	}
	// Replicas should agree; disagreement means corruption upstream.
	for _, s := range shares[1:] {
		if !bytes.Equal(s.Data, shares[0].Data) {
			return nil, fmt.Errorf("sharing: replicas disagree")
		}
	}
	dst = growBytes(dst, len(shares[0].Data))
	copy(dst, shares[0].Data)
	return dst, nil
}

// SplitSharesInto implements IntoScheme by reusing the share Data buffers
// around the inner hyperplane splitter, which still allocates internally
// (Blakley redraws and verifies coefficient sets; it is not a hot-path
// scheme).
func (b *Blakley) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	raw, err := b.Split(secret, k, m)
	if err != nil {
		return nil, err
	}
	shares = growShares(shares, m)
	for i := range shares {
		shares[i].Index = i
		shares[i].Data = append(shares[i].Data[:0], raw[i].Data...)
	}
	return shares, nil
}

// CombineInto implements IntoScheme; reconstruction goes through the
// allocating inner Combine and lands in dst.
func (b *Blakley) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	secret, err := b.Combine(shares, k, m)
	if err != nil {
		return nil, err
	}
	return append(growBytes(dst, 0), secret...), nil
}

// SplitSharesInto implements IntoScheme: the inner scheme splits into the
// reused buffers and each tag is appended in place, computed on a pooled
// keyed MAC state. The caller owns the share buffers throughout; once they
// have grown by tagLen the steady state allocates nothing beyond the inner
// scheme's own cost.
//
//remicss:noalloc
func (a *Authenticated) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	shares, err := SplitInto(a.inner, secret, k, m, shares)
	if err != nil {
		return nil, err
	}
	st := a.getMAC()
	defer a.putMAC(st)
	for i := range shares {
		shares[i].Data = append(shares[i].Data, st.tag(shares[i].Index, shares[i].Data)...)
	}
	return shares, nil
}

// CombineInto implements IntoScheme: verify and strip tags without copying
// share bodies, then reconstruct with the inner scheme's into path.
//
//remicss:noalloc
func (a *Authenticated) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	if len(shares) > shamir.MaxShares {
		return nil, fmt.Errorf("%w: %d shares", ErrInvalidParams, len(shares))
	}
	st := a.getMAC()
	defer a.putMAC(st)
	st.stripped = growShares(st.stripped, len(shares))
	for i, s := range shares {
		if len(s.Data) < tagLen+1 {
			return nil, fmt.Errorf("%w: share %d too short", ErrShareForged, s.Index)
		}
		data := s.Data[:len(s.Data)-tagLen]
		tag := s.Data[len(s.Data)-tagLen:]
		if !hmac.Equal(tag, st.tag(s.Index, data)) {
			return nil, fmt.Errorf("%w: index %d", ErrShareForged, s.Index)
		}
		st.stripped[i] = Share{Index: s.Index, Data: data}
	}
	return CombineInto(a.inner, dst, st.stripped, k, m)
}

// SplitSharesInto implements IntoScheme by dispatching on (k, m).
func (a *Auto) SplitSharesInto(secret []byte, k, m int, shares []Share) ([]Share, error) {
	if err := validate(secret, k, m); err != nil {
		return nil, err
	}
	return SplitInto(a.pick(k, m), secret, k, m, shares)
}

// CombineInto implements IntoScheme by dispatching on (k, m).
func (a *Auto) CombineInto(dst []byte, shares []Share, k, m int) ([]byte, error) {
	if k < 1 || m < k {
		return nil, fmt.Errorf("%w: k=%d, m=%d", ErrInvalidParams, k, m)
	}
	return CombineInto(a.pick(k, m), dst, shares, k, m)
}
