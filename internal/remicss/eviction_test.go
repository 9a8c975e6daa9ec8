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

// newEvictionHarness builds the pair with one reassembly shard, where
// eviction order is the global oldest-first most tests below pin.
func newEvictionHarness(t *testing.T, k, m, maxPending int) *evictionHarness {
	return newShardedEvictionHarness(t, k, m, maxPending, 1)
}

func newShardedEvictionHarness(t *testing.T, k, m, maxPending, shards int) *evictionHarness {
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
		Shards:     shards,
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
// late-share re-admission bug (named for the tombstone entry a delivered
// symbol used to leave behind): a share arriving after its symbol was
// delivered — at once, or long after the reassembly timeout — must count as
// SharesLate and must not re-open the sequence number, which at k=1 would
// deliver the same symbol twice. Delivery itself leaves nothing pending.
func TestTombstoneEvictionLateShares(t *testing.T) {
	steps := []struct {
		name string
		run  func(t *testing.T, h *evictionHarness, shares [][]byte)
		want ReceiverStats
	}{
		{
			name: "first share delivers",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.recv.HandleDatagram(shares[0])
			},
			want: ReceiverStats{SharesReceived: 1, SymbolsDelivered: 1},
		},
		{
			name: "late share inside the timeout",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += 10 * time.Millisecond
				h.recv.HandleDatagram(shares[1])
			},
			want: ReceiverStats{SharesReceived: 1, SharesLate: 1, SymbolsDelivered: 1},
		},
		{
			name: "tick after the timeout finds nothing to evict",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += 200 * time.Millisecond // past the 100ms timeout
				h.recv.Tick()
			},
			want: ReceiverStats{SharesReceived: 1, SharesLate: 1, SymbolsDelivered: 1},
		},
		{
			name: "straggler after the timeout is late, not re-admitted",
			run: func(t *testing.T, h *evictionHarness, shares [][]byte) {
				h.now += time.Millisecond
				h.recv.HandleDatagram(shares[2])
				// And again: every straggler counts late, none re-admits.
				h.recv.HandleDatagram(shares[2])
			},
			want: ReceiverStats{SharesReceived: 1, SharesLate: 3, SymbolsDelivered: 1},
		},
	}

	h := newEvictionHarness(t, 1, 3, 16)
	shares := h.send([]byte("delivered-symbol"))
	if len(shares) != 3 {
		t.Fatalf("captured %d shares, want 3", len(shares))
	}
	for _, step := range steps {
		step.run(t, h, shares)
		if got := h.recv.Stats(); got != step.want {
			t.Fatalf("%s: stats %+v, want %+v", step.name, got, step.want)
		}
		if got := h.delivered[0]; got != 1 {
			t.Fatalf("%s: seq 0 delivered %d times, want 1", step.name, got)
		}
		if got := h.recv.Pending(); got != 0 {
			t.Fatalf("%s: pending %d, want 0", step.name, got)
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
// delivered symbols are remembered by the replay window).
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

// TestClosedMemoryIsBounded delivers one symbol more than the replay window
// (closedMemoryFactor × MaxPending seqs) spans and checks both of its edges:
// the newest seq is refused by its bit, and the oldest, whose bit the window
// no longer holds, is refused for lying behind it. The memory is bounded and
// nothing it forgets is ever admitted again.
func TestClosedMemoryIsBounded(t *testing.T) {
	const maxPending = 4
	span := closedMemoryFactor * maxPending
	h := newEvictionHarness(t, 1, 3, maxPending)
	if got := 8 * len(h.recv.shards[0].window); got != (span+63)/64*8 {
		t.Fatalf("window is %d bytes for a span of %d seqs", got, span)
	}

	all := make([][][]byte, span+1)
	for i := range all {
		all[i] = h.send([]byte{byte(i)})
		h.recv.HandleDatagram(all[i][0])
		h.now += 200 * time.Millisecond
		h.recv.Tick()
	}
	if st := h.recv.Stats(); int(st.SymbolsDelivered) != span+1 {
		t.Fatalf("delivered %d, want %d", st.SymbolsDelivered, span+1)
	}

	h.recv.HandleDatagram(all[span][1])
	if got := h.recv.Stats().SharesLate; got != 1 {
		t.Fatalf("straggler for the newest seq: SharesLate %d, want 1", got)
	}
	h.recv.HandleDatagram(all[0][1])
	if st := h.recv.Stats(); st.SharesLate != 2 || int(st.SymbolsDelivered) != span+1 || h.delivered[0] != 1 {
		t.Fatalf("straggler for the seq behind the window: %+v, seq 0 delivered %d times; want it late", st, h.delivered[0])
	}
}

// TestReplayedSymbolIsNeverRedelivered is the channel-owning adversary's
// cheapest attack on deliver-once: record every datagram of one symbol, wait
// until the receiver has moved far past it, play the recording back. Before
// the replay window the closed-seq FIFO had forgotten seq 0 by then and the
// symbol was delivered a second time.
func TestReplayedSymbolIsNeverRedelivered(t *testing.T) {
	const k, m, maxPending = 3, 5, 8
	for _, shards := range []int{1, 2} {
		h := newShardedEvictionHarness(t, k, m, maxPending, shards)
		recording := h.send([]byte("recorded once"))
		for _, d := range recording {
			h.recv.HandleDatagram(d)
		}
		for i := 0; i < 5*maxPending; i++ {
			for _, d := range h.send([]byte{byte(i)}) {
				h.recv.HandleDatagram(d)
			}
			h.now += 200 * time.Millisecond
		}
		before := h.recv.Stats()
		for _, d := range recording {
			h.recv.HandleDatagram(d)
		}
		after := h.recv.Stats()
		if after.SharesLate != before.SharesLate+m || after.SymbolsDelivered != before.SymbolsDelivered ||
			after.SharesReceived != before.SharesReceived || h.delivered[0] != 1 || h.recv.Pending() != 0 {
			t.Fatalf("shards=%d: replay moved %+v to %+v (seq 0 delivered %d times, pending %d); want %d more late shares and nothing else",
				shards, before, after, h.delivered[0], h.recv.Pending(), m)
		}
	}
}

// TestPendingCountsOnlyIncompleteSymbols pins what Pending, the pending
// gauges and MaxPending mean: symbols that hold at least one share and await
// more. A delivered symbol is not among them, however many were delivered.
func TestPendingCountsOnlyIncompleteSymbols(t *testing.T) {
	const k, m, maxPending = 2, 3, 8
	h := newShardedEvictionHarness(t, k, m, maxPending, 2)
	gauges := func() (total, shardSum int64) {
		for _, s := range h.recv.Metrics().Gather() {
			switch s.Name {
			case "remicss_receiver_pending":
				total = s.Value
			case "remicss_receiver_shard_pending":
				shardSum += s.Value
				if s.Value < 0 {
					t.Fatalf("shard pending gauge reads %d", s.Value)
				}
			}
		}
		return total, shardSum
	}
	for i := 0; i < 10*maxPending; i++ {
		for _, d := range h.send([]byte{byte(i)}) {
			h.recv.HandleDatagram(d)
		}
	}
	total, shardSum := gauges()
	if p := h.recv.Pending(); p != 0 || total != 0 || shardSum != 0 {
		t.Fatalf("after %d deliveries: Pending %d, gauge %d, shard gauges sum %d; want 0", 10*maxPending, p, total, shardSum)
	}
	// The whole cap is there for incomplete symbols. Shards split it evenly,
	// so fill each shard to its slice: none may evict.
	perShard := make(map[*recvShard]int)
	admitted := 0
	for admitted < maxPending {
		first := h.send([]byte("incomplete"))[0]
		sh := h.recv.shardFor(h.snd.Seq() - 1)
		if perShard[sh] == maxPending/2 {
			continue
		}
		perShard[sh]++
		admitted++
		h.recv.HandleDatagram(first)
	}
	total, shardSum = gauges()
	if p := h.recv.Pending(); p != maxPending || total != maxPending || shardSum != maxPending {
		t.Fatalf("Pending %d, gauge %d, shard gauges sum %d; want %d", p, total, shardSum, maxPending)
	}
	if st := h.recv.Stats(); st.SymbolsEvicted != 0 {
		t.Fatalf("%d evictions admitting MaxPending incomplete symbols", st.SymbolsEvicted)
	}
}
