package shamir

import (
	"errors"
	"testing"

	"remicss/internal/drbg"
)

type brokenReader struct{ err error }

func (r brokenReader) Read([]byte) (int, error) { return 0, r.err }

// TestSplitSurfacesRandomShortfall pins the error contract of the split
// path: a randomness source failure is always classifiable as
// ErrRandomShortfall, and the source's own sentinel stays in the chain —
// callers distinguishing "the generator is down" (drbg.ErrEntropy) from
// other shortfalls do it with errors.Is, not string inspection.
func TestSplitSurfacesRandomShortfall(t *testing.T) {
	cause := errors.New("backing store unplugged")
	_, err := NewSplitter(brokenReader{err: cause}).SplitInto([]byte("secret"), 3, 5, nil)
	if !errors.Is(err, ErrRandomShortfall) {
		t.Fatalf("error %v is not ErrRandomShortfall", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("error %v dropped the underlying cause", err)
	}

	// Through the DRBG pool: entropy failure at state construction must
	// surface both sentinels from a plain Split call.
	pool := drbg.NewPool(func() (*drbg.DRBG, error) {
		return drbg.NewWithEntropy(brokenReader{err: cause})
	})
	_, err = NewSplitter(pool).SplitInto([]byte("secret"), 3, 5, nil)
	if !errors.Is(err, ErrRandomShortfall) {
		t.Fatalf("pooled error %v is not ErrRandomShortfall", err)
	}
	if !errors.Is(err, drbg.ErrEntropy) {
		t.Fatalf("pooled error %v lost the drbg.ErrEntropy sentinel", err)
	}
}

// TestDefaultSplitterUsesSharedPool guards the rewiring: a nil reader must
// resolve to the process-wide DRBG pool, not crypto/rand.
func TestDefaultSplitterUsesSharedPool(t *testing.T) {
	sp := NewSplitter(nil)
	if sp.rand != drbg.Shared {
		t.Fatalf("nil reader resolved to %T, want drbg.Shared", sp.rand)
	}
	if _, err := sp.SplitInto([]byte("works end to end"), 2, 3, nil); err != nil {
		t.Fatal(err)
	}
}
