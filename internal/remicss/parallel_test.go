package remicss

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"remicss/internal/obs"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// stallingChooser stalls every payload whose ordinal is in stallSet and
// otherwise delegates to a fixed assignment. Call counting makes batch
// stall positions deterministic.
type stallingChooser struct {
	fixed FixedChooser
	stall map[int]bool
	calls int
}

func (c *stallingChooser) Choose(links []Link) (int, uint32, bool) {
	i := c.calls
	c.calls++
	if c.stall[i] {
		return 0, 0, false
	}
	return c.fixed.Choose(links)
}

// batchHarness is a sender over capture links feeding a single-goroutine
// receiver, for SendBatch semantics tests.
type batchHarness struct {
	t         *testing.T
	links     []*captureLink
	snd       *Sender
	recv      *Receiver
	delivered map[uint64][]byte
}

func newBatchHarness(t *testing.T, chooser Chooser, m int) *batchHarness {
	t.Helper()
	h := &batchHarness{t: t, delivered: make(map[uint64][]byte)}
	links := make([]Link, m)
	h.links = make([]*captureLink, m)
	for i := range links {
		h.links[i] = &captureLink{}
		links[i] = h.links[i]
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(nil),
		Chooser: chooser,
		Clock:   func() time.Duration { return 0 },
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTrace(1 << 12),
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	h.snd = snd
	recv, err := NewReceiver(ReceiverConfig{
		Scheme: sharing.NewAuto(nil),
		Clock:  func() time.Duration { return 0 },
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			h.delivered[seq] = append([]byte(nil), payload...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.recv = recv
	return h
}

// drain replays every captured datagram into the receiver.
func (h *batchHarness) drain() {
	for _, l := range h.links {
		for _, d := range l.sent {
			h.recv.HandleDatagram(d)
		}
		l.sent = nil
	}
}

// TestSendBatchDeliversLikeSend checks the amortized path end to end: a
// burst through SendBatch reconstructs to the same payloads, consumes a
// contiguous sequence range, and leaves the same counters as the
// equivalent sequence of Send calls would.
func TestSendBatchDeliversLikeSend(t *testing.T) {
	const n = 17
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"replication-1of3", 1, 3},
		{"xor-3of3", 3, 3},
		{"shamir-3of5", 3, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newBatchHarness(t, FixedChooser{K: tc.k, Mask: 1<<uint(tc.m) - 1}, tc.m)
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 100+i)
			}
			planned, err := h.snd.SendBatch(payloads)
			if err != nil {
				t.Fatal(err)
			}
			if planned != n {
				t.Fatalf("planned %d symbols, want %d", planned, n)
			}
			if got := h.snd.Seq(); got != n {
				t.Fatalf("Seq() = %d after batch, want %d", got, n)
			}
			h.drain()
			if len(h.delivered) != n {
				t.Fatalf("delivered %d symbols, want %d", len(h.delivered), n)
			}
			for seq, want := range payloads {
				if got := h.delivered[uint64(seq)]; !bytes.Equal(got, want) {
					t.Errorf("seq %d: payload mismatch (got %d bytes, want %d)", seq, len(got), len(want))
				}
			}
			st := h.snd.Stats()
			if st.SymbolsSent != n || st.SharesSent != int64(n*tc.m) || st.SymbolsStalled != 0 {
				t.Errorf("stats %+v, want %d symbols and %d shares", st, n, n*tc.m)
			}
			// A follow-up Send must continue the same sequence space.
			if err := h.snd.Send(payloads[0]); err != nil {
				t.Fatal(err)
			}
			h.drain()
			if _, ok := h.delivered[uint64(n)]; !ok {
				t.Errorf("Send after SendBatch did not use seq %d", n)
			}
		})
	}
}

// TestSendBatchStalledPayloads pins the backpressure semantics: stalled
// payloads are counted and skipped without consuming sequence numbers, the
// rest of the burst still goes out, and the batch reports ErrBackpressure
// when nothing harder went wrong.
func TestSendBatchStalledPayloads(t *testing.T) {
	chooser := &stallingChooser{
		fixed: FixedChooser{K: 1, Mask: 0b111},
		stall: map[int]bool{1: true, 3: true},
	}
	h := newBatchHarness(t, chooser, 3)
	payloads := [][]byte{
		[]byte("symbol-0"), []byte("stalled-1"), []byte("symbol-2"),
		[]byte("stalled-3"), []byte("symbol-4"),
	}
	planned, err := h.snd.SendBatch(payloads)
	if err != ErrBackpressure {
		t.Fatalf("err = %v, want ErrBackpressure", err)
	}
	if planned != 3 {
		t.Fatalf("planned %d, want 3", planned)
	}
	if got := h.snd.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3 (stalls must not consume sequence numbers)", got)
	}
	st := h.snd.Stats()
	if st.SymbolsSent != 3 || st.SymbolsStalled != 2 {
		t.Fatalf("stats %+v, want 3 sent and 2 stalled", st)
	}
	h.drain()
	want := map[uint64]string{0: "symbol-0", 1: "symbol-2", 2: "symbol-4"}
	for seq, payload := range want {
		if got := string(h.delivered[seq]); got != payload {
			t.Errorf("seq %d delivered %q, want %q", seq, got, payload)
		}
	}
}

// TestSendBatchEncodingErrorDropsSymbol feeds one oversized payload into
// the middle of a burst: that symbol fails, the rest are delivered, and —
// per the observe-after-marshal rule — no share event or size observation
// leaks for the failed symbol.
func TestSendBatchEncodingErrorDropsSymbol(t *testing.T) {
	h := newBatchHarness(t, FixedChooser{K: 1, Mask: 0b111}, 3)
	payloads := [][]byte{
		[]byte("good-0"),
		bytes.Repeat([]byte{0xee}, wire.MaxPayload+1),
		[]byte("good-2"),
	}
	planned, err := h.snd.SendBatch(payloads)
	if err == nil {
		t.Fatal("oversized payload did not surface an error")
	}
	if planned != 2 {
		t.Fatalf("planned %d, want 2", planned)
	}
	st := h.snd.Stats()
	if st.SymbolsSent != 2 || st.SharesSent != 6 {
		t.Fatalf("stats %+v, want 2 symbols / 6 shares", st)
	}
	// Exactly the 6 surviving shares were traced: nothing was recorded for
	// the symbol that failed to encode.
	if got := h.snd.trace.CountKind(obs.EventShareSent); got != 6 {
		t.Errorf("traced %d share-sent events, want 6", got)
	}
	h.drain()
	if len(h.delivered) != 2 {
		t.Fatalf("delivered %d symbols, want 2", len(h.delivered))
	}
}

// TestSendBatchConcurrentStress drives SendBatch from 8 goroutines into a
// sharded receiver sharing one registry and trace, under -race the
// concurrency proof for the batch path: every symbol of every burst must
// come out exactly once and the shared counters must reconcile exactly.
func TestSendBatchConcurrentStress(t *testing.T) {
	const (
		channels  = 3
		callers   = 8
		bursts    = 20
		perBurst  = 10
		perCaller = bursts * perBurst
	)
	total := callers * perCaller

	reg := obs.NewRegistry()
	trace := obs.NewTrace(4 * channels * total)
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:  sharing.NewAuto(nil),
		Clock:   func() time.Duration { return 0 },
		Metrics: reg,
		Trace:   trace,
		Shards:  8, // exercise sharded ingest regardless of host GOMAXPROCS
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			id := binary.BigEndian.Uint64(payload)
			mu.Lock()
			if seen[id] {
				t.Errorf("id %d delivered twice", id)
			}
			seen[id] = true
			mu.Unlock()
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
	snd, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(nil), // DRBG pool: concurrency-safe outside the lock
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
	var send sync.WaitGroup
	for c := 0; c < callers; c++ {
		c := c
		send.Add(1)
		go func() {
			defer send.Done()
			payloads := make([][]byte, perBurst)
			for i := range payloads {
				payloads[i] = make([]byte, 64)
			}
			for b := 0; b < bursts; b++ {
				for i := range payloads {
					binary.BigEndian.PutUint64(payloads[i], uint64(c)<<32|uint64(b*perBurst+i))
				}
				planned, err := snd.SendBatch(payloads)
				if err != nil || planned != perBurst {
					t.Errorf("SendBatch: planned %d err %v, want %d and nil", planned, err, perBurst)
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

	mu.Lock()
	n := len(seen)
	mu.Unlock()
	if n != total {
		t.Errorf("delivered %d unique symbols, want %d", n, total)
	}
	if got := snd.Seq(); got != uint64(total) {
		t.Errorf("sender assigned %d sequence numbers, want %d", got, total)
	}
	st := snd.Stats()
	if st.SymbolsSent != int64(total) || st.SharesSent != int64(channels*total) {
		t.Errorf("sender stats %+v, want %d symbols / %d shares", st, total, channels*total)
	}
	rst := recv.Stats()
	if rst.SymbolsDelivered != int64(total) || rst.SharesInvalid != 0 || rst.CombineFailures != 0 {
		t.Errorf("receiver stats %+v, want %d delivered and no failures", rst, total)
	}
	if got := trace.CountKind(obs.EventShareSent); got != channels*total {
		t.Errorf("traced %d share-sent events, want %d", got, channels*total)
	}
}

// parallelBenchSender builds the benchmark sender: m null links, fixed
// (k, mask), constant clock, instrumentation on — the same shape as the
// hot-path pins, so throughput numbers include the metrics cost.
func parallelBenchSender(b *testing.B, k, m int) *Sender {
	b.Helper()
	links := make([]Link, m)
	for i := range links {
		links[i] = nullLink{}
	}
	s, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(nil), // DRBG pool: safe for concurrent Send
		Chooser: FixedChooser{K: k, Mask: 1<<uint(m) - 1},
		Clock:   func() time.Duration { return 0 },
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTrace(1 << 12),
	}, links)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSendParallel measures aggregate Send throughput with all
// procs hammering one sender — the workload the lock-split data path is
// for. Compare against BenchmarkSendSerialized at the same GOMAXPROCS:
// the ratio is the parallel speedup of the fan-out redesign.
func BenchmarkSendParallel(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 1400)
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"replication-1of3", 1, 3},
		{"xor-3of3", 3, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := parallelBenchSender(b, tc.k, tc.m)
			if err := s.Send(payload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := s.Send(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkSendSerialized is the baseline for BenchmarkSendParallel: the
// identical parallel workload forced through one global mutex, emulating
// the pre-refactor sender whose entire Send body ran under a single lock.
func BenchmarkSendSerialized(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 1400)
	for _, tc := range []struct {
		name string
		k, m int
	}{
		{"replication-1of3", 1, 3},
		{"xor-3of3", 3, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := parallelBenchSender(b, tc.k, tc.m)
			if err := s.Send(payload); err != nil {
				b.Fatal(err)
			}
			var mu sync.Mutex
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					mu.Lock()
					err := s.Send(payload)
					mu.Unlock()
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
