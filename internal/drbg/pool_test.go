package drbg

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

func deterministicPool(seed string) *Pool {
	n := 0
	var mu sync.Mutex
	return &Pool{newState: func() (*DRBG, error) {
		mu.Lock()
		defer mu.Unlock()
		n++
		return NewDeterministic(append([]byte(seed), byte(n))), nil
	}}
}

func TestPoolReadRecyclesState(t *testing.T) {
	p := deterministicPool("recycle")
	a := make([]byte, 100)
	if _, err := io.ReadFull(p, a); err != nil {
		t.Fatal(err)
	}
	// A second read must continue the same state's stream, not restart a
	// fresh one: the slot round-trips the instance.
	b := make([]byte, 100)
	if _, err := io.ReadFull(p, b); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 200)
	if _, err := io.ReadFull(NewDeterministic(append([]byte("recycle"), 1)), want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(a, b...), want) {
		t.Fatal("pool did not recycle the single caller's state")
	}
}

func TestPoolConcurrentReads(t *testing.T) {
	p := &Pool{}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := 0; i < 50; i++ {
				if _, err := io.ReadFull(p, buf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolPropagatesEntropyError(t *testing.T) {
	p := &Pool{newState: func() (*DRBG, error) {
		return NewWithEntropy(&fixedEntropy{})
	}}
	if _, err := p.Read(make([]byte, 16)); !errors.Is(err, ErrEntropy) {
		t.Fatalf("pool error %v is not ErrEntropy", err)
	}
}

func TestPoolDiscardsFailedState(t *testing.T) {
	// One good seed, then entropy goes dark. The state that hits the
	// failed reseed must not be recycled: the next Read builds fresh
	// (and fails too, but through the constructor, not a wedged state).
	src := &fixedEntropy{chunks: [][]byte{seed48(7)}}
	built := 0
	p := &Pool{newState: func() (*DRBG, error) {
		built++
		d, err := NewWithEntropy(src)
		if err != nil {
			return nil, err
		}
		d.generated = reseedAfter // poison: next refill reseeds and fails
		return d, nil
	}}
	if _, err := p.Read(make([]byte, 16)); !errors.Is(err, ErrEntropy) {
		t.Fatalf("want ErrEntropy, got %v", err)
	}
	if p.states.Get() != nil {
		t.Fatal("failed state returned to the pool")
	}
	if _, err := p.Read(make([]byte, 16)); !errors.Is(err, ErrEntropy) {
		t.Fatalf("want ErrEntropy from rebuilt state, got %v", err)
	}
	if built != 2 {
		t.Fatalf("pool built %d states, want 2 (no recycling of the failed one)", built)
	}
}

func TestPoolSteadyStateReadDoesNotAllocate(t *testing.T) {
	p := deterministicPool("pool alloc")
	warm := make([]byte, 1)
	if _, err := p.Read(warm); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1024)
	if avg := testing.AllocsPerRun(15, func() {
		if _, err := p.Read(buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Pool.Read allocates %.1f times per call, want 0", avg)
	}
}
