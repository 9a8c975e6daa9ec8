package remicss

import (
	"math/rand"
	"testing"
	"time"

	"remicss/internal/obs"
	"remicss/internal/sharing"
)

// captureLink records every datagram handed to it so tests can replay real
// sender output into a receiver selectively.
type captureLink struct {
	sent [][]byte
}

func (c *captureLink) Send(datagram []byte) bool {
	c.sent = append(c.sent, append([]byte(nil), datagram...))
	return true
}
func (c *captureLink) Writable() bool         { return true }
func (c *captureLink) Backlog() time.Duration { return 0 }

// evictionHarness is a sender/receiver pair over capture links with a
// manually advanced clock, for table-driven eviction scenarios.
type evictionHarness struct {
	t         *testing.T
	now       time.Duration
	links     []*captureLink
	snd       *Sender
	recv      *Receiver
	delivered map[uint64]int // deliveries per seq
}

func newEvictionHarness(t *testing.T, k, m, maxPending int) *evictionHarness {
	t.Helper()
	h := &evictionHarness{t: t, delivered: make(map[uint64]int)}
	scheme := sharing.NewAuto(rand.New(rand.NewSource(7)))
	clock := func() time.Duration { return h.now }
	links := make([]Link, m)
	h.links = make([]*captureLink, m)
	for i := range links {
		h.links[i] = &captureLink{}
		links[i] = h.links[i]
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: FixedChooser{K: k, Mask: 1<<uint(m) - 1},
		Clock:   clock,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	h.snd = snd
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:     scheme,
		Clock:      clock,
		Timeout:    100 * time.Millisecond,
		MaxPending: maxPending,
		Shards:     1, // eviction tests pin the global oldest-first order and exact FIFO capacity
		Metrics:    obs.NewRegistry(),
		Trace:      obs.NewTrace(1 << 12),
		OnSymbol:   func(seq uint64, _ []byte, _ time.Duration) { h.delivered[seq]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.recv = recv
	return h
}

// send transmits one symbol and returns the captured share datagrams, one
// per channel.
func (h *evictionHarness) send(payload []byte) [][]byte {
	h.t.Helper()
	for _, l := range h.links {
		l.sent = nil
	}
	if err := h.snd.Send(payload); err != nil {
		h.t.Fatal(err)
	}
	var out [][]byte
	for _, l := range h.links {
		out = append(out, l.sent...)
	}
	return out
}

// TestTombstoneEvictionLateShares is the regression test for the
// late-share re-admission bug: a share arriving after its delivered
// symbol's tombstone has been evicted must count as SharesLate and must
// not re-open the sequence number — previously it re-admitted the seq and,
// at k=1, delivered the same symbol twice.
func TestTombstoneEvictionLateShares(t *testing.T) {
	steps := []struct {
		name string
		run  func(t *testing.T, h *evictionHarness, shares [][]byte)
		want ReceiverStats
		// wantDeliveries is the expected delivery count for seq 0 after
		// the step.
		wantDeliveries int
		wantPending    int
	}{
		{
			name: "first share delivers",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.recv.HandleDatagram(shares[0])
			},
			want:           ReceiverStats{SharesReceived: 1, SymbolsDelivered: 1},
			wantDeliveries: 1,
			wantPending:    1, // the tombstone
		},
		{
			name: "late share against live tombstone",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += 10 * time.Millisecond
				h.recv.HandleDatagram(shares[1])
			},
			want:           ReceiverStats{SharesReceived: 1, SharesLate: 1, SymbolsDelivered: 1},
			wantDeliveries: 1,
			wantPending:    1,
		},
		{
			name: "tick evicts the tombstone silently",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += 200 * time.Millisecond // past the 100ms timeout
				h.recv.Tick()
			},
			// Tombstone eviction is not a symbol loss: SymbolsEvicted stays 0.
			want:           ReceiverStats{SharesReceived: 1, SharesLate: 1, SymbolsDelivered: 1},
			wantDeliveries: 1,
			wantPending:    0,
		},
		{
			name: "straggler after tombstone eviction is late, not re-admitted",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += time.Millisecond
				h.recv.HandleDatagram(shares[2])
				// And again: every straggler counts late, none re-admits.
				h.recv.HandleDatagram(shares[2])
			},
			want:           ReceiverStats{SharesReceived: 1, SharesLate: 3, SymbolsDelivered: 1},
			wantDeliveries: 1,
			wantPending:    0,
		},
	}

	h := newEvictionHarness(t, 1, 3, 16)
	shares := h.send([]byte("tombstone-symbol"))
	if len(shares) != 3 {
		t.Fatalf("captured %d shares, want 3", len(shares))
	}
	for _, step := range steps {
		step.run(t, h, shares)
		if got := h.recv.Stats(); got != step.want {
			t.Fatalf("%s: stats %+v, want %+v", step.name, got, step.want)
		}
		if got := h.delivered[0]; got != step.wantDeliveries {
			t.Fatalf("%s: seq 0 delivered %d times, want %d", step.name, got, step.wantDeliveries)
		}
		if got := h.recv.Pending(); got != step.wantPending {
			t.Fatalf("%s: pending %d, want %d", step.name, got, step.wantPending)
		}
	}
	// The delivery must have been traced exactly once.
	if got := h.recv.trace.CountKind(obs.EventSymbolDelivered); got != 1 {
		t.Fatalf("traced %d symbol deliveries, want 1", got)
	}
}

// TestIncompleteEvictionStillReadmits pins the complementary behavior: an
// INCOMPLETE symbol evicted by timeout counts as SymbolsEvicted, and a
// fresh set of shares for that sequence number may still complete it (only
// delivered symbols are remembered in the closed set).
func TestIncompleteEvictionStillReadmits(t *testing.T) {
	h := newEvictionHarness(t, 2, 3, 16)
	shares := h.send([]byte("incomplete-symbol"))
	if len(shares) != 3 {
		t.Fatalf("captured %d shares, want 3", len(shares))
	}
	h.recv.HandleDatagram(shares[0]) // 1 of k=2: stays pending
	h.now += 200 * time.Millisecond
	h.recv.Tick() // evicts the incomplete entry
	st := h.recv.Stats()
	if st.SymbolsEvicted != 1 || st.SymbolsDelivered != 0 {
		t.Fatalf("after eviction: %+v", st)
	}
	if got := h.recv.trace.CountKind(obs.EventSymbolEvicted); got != 1 {
		t.Fatalf("traced %d evictions, want 1", got)
	}
	// Two fresh shares re-admit and complete the symbol.
	h.recv.HandleDatagram(shares[1])
	h.recv.HandleDatagram(shares[2])
	st = h.recv.Stats()
	if st.SymbolsDelivered != 1 || st.SharesLate != 0 {
		t.Fatalf("after re-admission: %+v", st)
	}
	if h.delivered[0] != 1 {
		t.Fatalf("seq 0 delivered %d times, want 1", h.delivered[0])
	}
}

// TestClosedMemoryIsBounded fills the closed-symbol memory past its
// capacity (closedMemoryFactor × MaxPending) and checks both directions:
// recently closed seqs are still refused, while the oldest remembered seq
// has been forgotten (bounded memory, graceful degradation to the old
// re-admission behavior).
func TestClosedMemoryIsBounded(t *testing.T) {
	const maxPending = 4
	capacity := closedMemoryFactor * maxPending
	h := newEvictionHarness(t, 1, 3, maxPending)

	// Deliver and evict capacity+1 symbols, so seq 0 falls out of the
	// closed memory.
	all := make([][][]byte, capacity+1)
	for i := range all {
		all[i] = h.send([]byte{byte(i)})
		h.recv.HandleDatagram(all[i][0])
		h.now += 200 * time.Millisecond
		h.recv.Tick()
	}
	st := h.recv.Stats()
	if int(st.SymbolsDelivered) != capacity+1 {
		t.Fatalf("delivered %d, want %d", st.SymbolsDelivered, capacity+1)
	}

	// The newest closed seq is refused...
	h.recv.HandleDatagram(all[capacity][1])
	if got := h.recv.Stats().SharesLate; got != 1 {
		t.Fatalf("straggler for remembered seq: SharesLate %d, want 1", got)
	}
	// ...but the oldest was forgotten and re-admits (and, at k=1,
	// re-delivers — the bounded-memory tradeoff).
	h.recv.HandleDatagram(all[0][1])
	st = h.recv.Stats()
	if int(st.SymbolsDelivered) != capacity+2 {
		t.Fatalf("forgotten seq did not re-admit: %+v", st)
	}
}

// TestClosedMemoryGrowsToItsLimit pins the closed memory's storage: nothing
// is reserved up front, the ring grows with the seqs it remembers, stops at
// closedMemoryFactor × MaxPending, and from there on each new seq overwrites
// the oldest.
func TestClosedMemoryGrowsToItsLimit(t *testing.T) {
	const maxPending = 4
	capacity := closedMemoryFactor * maxPending
	h := newEvictionHarness(t, 1, 3, maxPending)
	sh := &h.recv.shards[0]
	if len(sh.closedFIFO) != 0 || len(sh.closed) != 0 {
		t.Fatalf("fresh receiver remembers %d/%d closed seqs, want none", len(sh.closedFIFO), len(sh.closed))
	}
	for i := 0; i <= capacity; i++ {
		h.recv.HandleDatagram(h.send([]byte{byte(i)})[0])
		h.now += 200 * time.Millisecond
		h.recv.Tick()
		want := i + 1
		if want > capacity {
			want = capacity
		}
		if len(sh.closedFIFO) != want || len(sh.closed) != want {
			t.Fatalf("after %d closes: ring %d, set %d, want %d", i+1, len(sh.closedFIFO), len(sh.closed), want)
		}
	}
	if _, ok := sh.closed[0]; ok {
		t.Fatal("seq 0 still remembered after capacity+1 closes")
	}
	for seq := uint64(1); seq <= uint64(capacity); seq++ {
		if _, ok := sh.closed[seq]; !ok {
			t.Fatalf("seq %d forgotten with only seq 0 due out", seq)
		}
	}
}

// TestShareBuffersReturnToTheShard follows share payload buffers through
// their life: owned by the entry while the symbol is incomplete, back on the
// shard's freelist the moment it is delivered (the tombstone keeps none) or
// evicted, and never more than maxFreeBufs of them kept.
func TestShareBuffersReturnToTheShard(t *testing.T) {
	h := newEvictionHarness(t, 2, 3, 2*maxFreeBufs)
	sh := &h.recv.shards[0]
	shares := h.send([]byte("buffer-life"))
	h.recv.HandleDatagram(shares[0])
	if e := sh.pending[0]; len(e.shares) != 1 || len(sh.free) != 0 {
		t.Fatalf("incomplete: entry holds %d shares, freelist %d, want 1 and 0", len(e.shares), len(sh.free))
	}
	h.recv.HandleDatagram(shares[1]) // k reached: delivered
	h.recv.HandleDatagram(shares[2]) // late against the tombstone: takes no buffer
	if e := sh.pending[0]; !e.done || len(e.shares) != 0 || len(sh.free) != 2 {
		t.Fatalf("tombstone: done %v, holds %d shares, freelist %d, want true, 0 and 2", e.done, len(e.shares), len(sh.free))
	}

	// One share each of more symbols than the freelist may keep, then time
	// them all out.
	for i := 0; i < maxFreeBufs+50; i++ {
		h.recv.HandleDatagram(h.send([]byte{byte(i)})[0])
	}
	h.now += 200 * time.Millisecond
	h.recv.Tick()
	if got := h.recv.Pending(); got != 0 {
		t.Fatalf("pending %d after timing everything out", got)
	}
	if len(sh.free) != maxFreeBufs {
		t.Fatalf("freelist holds %d buffers after a burst of %d, want the bound %d", len(sh.free), maxFreeBufs+50, maxFreeBufs)
	}
}
