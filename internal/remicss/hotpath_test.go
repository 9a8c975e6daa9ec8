package remicss

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/obs"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// nullLink accepts every datagram and discards it without retaining the
// slice, isolating the sender's own allocation behavior.
type nullLink struct{}

func (nullLink) Send(datagram []byte) bool { return true }
func (nullLink) Writable() bool            { return true }
func (nullLink) Backlog() time.Duration    { return 0 }

// hotPathSender builds a sender over m null links with a fixed (k, mask)
// assignment and a constant clock. Metrics and tracing are explicitly ON:
// the allocation pins below must hold with full instrumentation, per the
// obs design contract.
func hotPathSender(t testing.TB, k, m int, scheme sharing.Scheme) *Sender {
	t.Helper()
	links := make([]Link, m)
	for i := range links {
		links[i] = nullLink{}
	}
	s, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: FixedChooser{K: k, Mask: 1<<uint(m) - 1},
		Clock:   func() time.Duration { return 0 },
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTrace(1 << 12),
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSendHotPathAllocs pins the steady-state allocation budget of the
// send path with metrics and tracing enabled: zero for the replication and
// XOR fast paths on a fixed randomness source; for Shamir and authenticated
// Shamir on the shared DRBG pool, as production senders run them, nothing
// but the DRBG refill — two allocations per 16 KiB of coefficients, 0.34 a
// symbol here, under one in any mean over the runs.
func TestSendHotPathAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 1400)
	auth, err := sharing.NewAuthenticated(sharing.NewAuto(nil), []byte("hot path key"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		k, m   int
		scheme sharing.Scheme
		max    float64
	}{
		{"replication-1of3", 1, 3, sharing.NewAuto(rand.New(rand.NewSource(1))), 0},
		{"xor-3of3", 3, 3, sharing.NewAuto(rand.New(rand.NewSource(1))), 0},
		{"shamir-3of5", 3, 5, sharing.NewAuto(nil), 1},
		{"auth-3of5", 3, 5, auth, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := hotPathSender(t, tc.k, tc.m, tc.scheme)
			// Warm the scratch buffers (first call sizes them).
			if err := s.Send(payload); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := s.Send(payload); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Errorf("Send allocates %v times per op, want <= %v", allocs, tc.max)
			}
		})
	}
}

// TestReceiverIngestSteadyStateAllocs checks that reassembly recycles
// entries, and with them their share payload buffers, through entryPool:
// ingesting a stream of fresh symbols settles to the one allocation per
// symbol the callback owns, the delivered secret.
func TestReceiverIngestSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x33}, 1400)
	var now time.Duration
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   sharing.NewAuto(rand.New(rand.NewSource(2))),
		Clock:    func() time.Duration { return now },
		OnSymbol: func(seq uint64, payload []byte, delay time.Duration) {},
		Timeout:  time.Millisecond,
		Metrics:  obs.NewRegistry(),
		Trace:    obs.NewTrace(1 << 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replication shares carry the payload verbatim, so datagrams can be
	// crafted directly. Each round is one fresh symbol (k=1, m=3): the
	// first share delivers, which returns the entry and its buffer to the
	// pool, and the rest are late against the replay window.
	var seq uint64
	var dgram []byte
	round := func() {
		now += 10 * time.Millisecond
		for idx := 0; idx < 3; idx++ {
			pkt := wire.SharePacket{
				Seq: seq, K: 1, M: 3, Index: uint8(idx),
				SentAt: int64(now), Payload: payload,
			}
			var err error
			dgram, err = wire.AppendMarshal(dgram[:0], pkt)
			if err != nil {
				t.Fatal(err)
			}
			recv.HandleDatagram(dgram)
		}
		seq++
	}
	for i := 0; i < 5; i++ {
		round() // warm entryPool
	}
	allocs := testing.AllocsPerRun(100, round)
	// Budget: the delivered secret handed to the callback, and one to spare
	// — nothing per share, nothing for the order, nothing for the window.
	if allocs > 2 {
		t.Errorf("ingest allocates %v times per symbol, want <= 2", allocs)
	}
	if got := recv.Stats().SymbolsDelivered; got != int64(seq) {
		t.Fatalf("delivered %d of %d symbols", got, seq)
	}
}

// BenchmarkSendHotPath measures the steady-state send path over null links
// for the three scheme fast paths; CI runs it as a smoke test.
func BenchmarkSendHotPath(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 1400)
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"replication-1of3", 1, 3},
		{"xor-3of3", 3, 3},
		{"shamir-3of5", 3, 5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := hotPathSender(b, tc.k, tc.m, sharing.NewAuto(rand.New(rand.NewSource(1))))
			if err := s.Send(payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Send(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
