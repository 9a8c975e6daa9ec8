package remicss

import (
	"encoding/binary"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remicss/internal/obs"
	"remicss/internal/sharing"
)

// TestObservabilityStress hammers one shared registry and trace from every
// direction at once — senders on Send, per-channel ingest goroutines on
// HandleDatagram, plus readers taking Stats snapshots, Gathering and
// rendering the registry, and draining the trace ring — and then checks
// the counters reconcile exactly. Run under -race this is the
// concurrency-safety proof for the observability layer; the final
// assertions prove instrumentation never loses an increment.
func TestObservabilityStress(t *testing.T) {
	const (
		channels  = 3
		senders   = 8 // >= 8 concurrent Send callers: the sharded-pipeline stress shape
		perSender = 300
	)
	total := senders * perSender

	reg := obs.NewRegistry()
	trace := obs.NewTrace(4 * channels * total) // large enough to never wrap

	var deliveredSeqs sync.Map
	var delivered atomic.Int64
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:  sharing.NewAuto(rand.New(rand.NewSource(11))),
		Clock:   func() time.Duration { return 0 },
		Metrics: reg,
		Trace:   trace,
		Shards:  8, // exercise sharded ingest regardless of host GOMAXPROCS
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			id := binary.BigEndian.Uint64(payload)
			if _, dup := deliveredSeqs.LoadOrStore(id, true); dup {
				t.Errorf("id %d delivered twice", id)
			}
			delivered.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	links := make([]Link, channels)
	chans := make([]*chanLink, channels)
	for i := range links {
		chans[i] = &chanLink{ch: make(chan []byte, 64)}
		links[i] = chans[i]
	}
	// nil scheme randomness = the shared DRBG pool: splits run outside the
	// sender lock, so a seeded *math/rand.Rand would race across Send
	// goroutines.
	snd, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(nil),
		Chooser: FixedChooser{K: 2, Mask: 1<<channels - 1},
		Clock:   func() time.Duration { return 0 },
		Metrics: reg,
		Trace:   trace,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	var ingest sync.WaitGroup
	for _, cl := range chans {
		cl := cl
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for d := range cl.ch {
				recv.HandleDatagram(d)
			}
		}()
	}

	// Readers: Stats snapshots, registry exposition, and trace drains,
	// continuously while traffic flows.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(3)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = snd.Stats()
				_ = recv.Stats()
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := reg.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
				if err := reg.WriteJSON(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		var buf []obs.Event
		for {
			select {
			case <-stop:
				return
			default:
				buf = trace.Snapshot(buf[:0])
			}
		}
	}()

	var send sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		send.Add(1)
		go func() {
			defer send.Done()
			payload := make([]byte, 64)
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint64(payload, uint64(s)<<32|uint64(i))
				if err := snd.Send(payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	send.Wait()
	for _, cl := range chans {
		close(cl.ch)
	}
	ingest.Wait()
	close(stop)
	readers.Wait()

	// Reconciliation: nothing was lossy in-process, so the counters must
	// balance exactly.
	st := snd.Stats()
	if st.SymbolsSent != int64(total) {
		t.Errorf("SymbolsSent %d, want %d", st.SymbolsSent, total)
	}
	if st.SharesSent != int64(channels*total) || st.SharesDropped != 0 {
		t.Errorf("SharesSent %d dropped %d, want %d and 0", st.SharesSent, st.SharesDropped, channels*total)
	}
	rst := recv.Stats()
	if rst.SymbolsDelivered != int64(total) || delivered.Load() != int64(total) {
		t.Errorf("SymbolsDelivered %d (callback %d), want %d", rst.SymbolsDelivered, delivered.Load(), total)
	}
	// Every share either completed a symbol (k per symbol) or arrived late
	// against the replay window (m-k per symbol).
	if rst.SharesReceived != int64(2*total) || rst.SharesLate != int64(total) {
		t.Errorf("SharesReceived %d SharesLate %d, want %d and %d", rst.SharesReceived, rst.SharesLate, 2*total, total)
	}
	if rst.SharesInvalid != 0 || rst.CombineFailures != 0 {
		t.Errorf("unexpected failures: %+v", rst)
	}
	// The trace ring never wrapped, so per-kind event counts must equal the
	// corresponding counters.
	if got := trace.CountKind(obs.EventShareSent); got != int(st.SharesSent) {
		t.Errorf("traced %d share-sent events, counters say %d", got, st.SharesSent)
	}
	if got := trace.CountKind(obs.EventSymbolDelivered); got != int(rst.SymbolsDelivered) {
		t.Errorf("traced %d deliveries, counters say %d", got, rst.SymbolsDelivered)
	}
	// Legacy stats views and the registry exposition must agree: find the
	// datagram counter in a Gather and compare.
	var datagrams int64
	for _, s := range reg.Gather() {
		if s.Name == "remicss_receiver_datagrams_total" {
			datagrams = s.Value
		}
	}
	if datagrams != int64(channels*total) {
		t.Errorf("gathered datagram total %d, want %d", datagrams, channels*total)
	}
}
