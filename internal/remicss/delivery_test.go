package remicss

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remicss/internal/sharing"
)

// TestReceiverWipesPayloadOnReturn checks the OnSymbol contract from the
// receiver's side, for every scheme: the payload is the secret during the
// call, and a payload kept past the call reads as all zeros once
// HandleDatagram returns.
func TestReceiverWipesPayloadOnReturn(t *testing.T) {
	auth, err := sharing.NewAuthenticated(sharing.NewAuto(rand.New(rand.NewSource(18))), []byte("wipe key"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		scheme sharing.Scheme
		k, m   int
	}{
		{"replication-1of3", sharing.NewAuto(rand.New(rand.NewSource(18))), 1, 3},
		{"xor-3of3", sharing.NewAuto(rand.New(rand.NewSource(18))), 3, 3},
		{"shamir-3of5", sharing.NewAuto(rand.New(rand.NewSource(18))), 3, 5},
		{"auth-3of5", auth, 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secret := bytes.Repeat([]byte("wipe me "), 50)
			var kept []byte
			recv, err := NewReceiver(ReceiverConfig{
				Scheme: tc.scheme,
				Clock:  func() time.Duration { return 0 },
				OnSymbol: func(_ uint64, payload []byte, _ time.Duration) {
					if !bytes.Equal(payload, secret) {
						t.Errorf("delivered %q, want %q", payload, secret)
					}
					kept = payload
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range marshalShares(t, tc.scheme, secret, 4, tc.k, tc.m)[:tc.k] {
				recv.HandleDatagram(d)
			}
			if len(kept) != len(secret) {
				t.Fatalf("kept %d bytes, want the %d-byte secret", len(kept), len(secret))
			}
			if !bytes.Equal(kept, make([]byte, len(kept))) {
				t.Errorf("payload kept past the callback still reads %q", kept)
			}
		})
	}
}

// combineThenReject reconstructs into dst and then fails, as a scheme whose
// last check rejects the symbol after combining would.
type combineThenReject struct{ sharing.Scheme }

func (s combineThenReject) CombineInto(dst []byte, shares []sharing.Share, k, m int) ([]byte, error) {
	if _, err := s.Scheme.CombineInto(dst, shares, k, m); err != nil {
		return nil, err
	}
	return nil, errors.New("rejected after combining")
}

// TestReceiverWipesBufferAfterCombineFailure checks that a combine which
// wrote the secret and then failed leaves no plaintext in secretPool: every
// buffer at rest is zeros over its whole capacity.
func TestReceiverWipesBufferAfterCombineFailure(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(19)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   combineThenReject{scheme},
		Clock:    func() time.Duration { return 0 },
		OnSymbol: func(uint64, []byte, time.Duration) { t.Error("a rejected symbol was delivered") },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range marshalShares(t, scheme, bytes.Repeat([]byte("rejected"), 40), 6, 2, 3)[:2] {
		recv.HandleDatagram(d)
	}
	if got := recv.Stats().CombineFailures; got != 1 {
		t.Fatalf("combine failures %d, want 1", got)
	}
	var resting []*[]byte
	for sb := secretPool.Get(); sb != nil; sb = secretPool.Get() {
		resting = append(resting, sb)
	}
	if len(resting) == 0 {
		t.Fatal("the failed symbol's buffer did not return to secretPool")
	}
	for _, sb := range resting {
		if b := (*sb)[:cap(*sb)]; !bytes.Equal(b, make([]byte, len(b))) {
			t.Errorf("a buffer at rest in secretPool holds %q", bytes.Trim(b, "\x00"))
		}
		secretPool.Put(sb)
	}
}

// TestReceiverConcurrentCompletionsOwnTheirBuffers completes symbols that
// land on different shards from several goroutines at once. Each callback
// checks its payload byte for byte; two completions that shared a buffer
// would also race, under -race, between one's combine and the other's
// callback or wipe.
func TestReceiverConcurrentCompletionsOwnTheirBuffers(t *testing.T) {
	const workers, perWorker = 4, 200
	secretOf := func(seq uint64) []byte { return bytes.Repeat([]byte{byte(seq), byte(seq >> 8), 0x5a}, 300) }
	scheme := sharing.NewAuto(rand.New(rand.NewSource(20)))
	var delivered atomic.Int64
	recv, err := NewReceiver(ReceiverConfig{
		Scheme: scheme,
		Clock:  func() time.Duration { return 0 },
		Shards: 8,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			if !bytes.Equal(payload, secretOf(seq)) {
				t.Errorf("seq %d delivered bytes of another symbol", seq)
			}
			delivered.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The shares are made up front: the scheme's math/rand source is not
	// safe for concurrent splits.
	feeds := make([][][]byte, workers)
	for w := range feeds {
		for i := 0; i < perWorker; i++ {
			seq := uint64(w*perWorker + i)
			feeds[w] = append(feeds[w], marshalShares(t, scheme, secretOf(seq), seq, 2, 3)[:2]...)
		}
	}
	var wg sync.WaitGroup
	for _, feed := range feeds {
		wg.Add(1)
		go func(feed [][]byte) {
			defer wg.Done()
			for _, d := range feed {
				recv.HandleDatagram(d)
			}
		}(feed)
	}
	wg.Wait()
	if got := delivered.Load(); got != workers*perWorker {
		t.Fatalf("delivered %d of %d symbols", got, workers*perWorker)
	}
}
