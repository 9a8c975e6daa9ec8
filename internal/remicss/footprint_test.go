package remicss

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"remicss/internal/sharing"
)

// liveHeap is HeapAlloc after collections have settled: the second cycle
// frees what the first one's finalizers and sweep released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// loopLink hands every datagram straight to a receiver: the in-memory
// channel of the footprint tests.
type loopLink struct{ recv *Receiver }

func (l loopLink) Send(datagram []byte) bool { l.recv.HandleDatagram(datagram); return true }
func (loopLink) Writable() bool              { return true }
func (loopLink) Backlog() time.Duration      { return 0 }

// footprintPair is one session as the tenants1k benchmark workload builds
// it — Shamir 2-of-3 on the shared DRBG, private registries, default
// MaxPending and timeout — with Shards pinned to 2 so the figure does not
// follow the host's core count.
func footprintPair(t *testing.T, clock func() time.Duration) (*Sender, *Receiver) {
	t.Helper()
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   sharing.NewAuto(nil),
		Clock:    clock,
		Shards:   2,
		OnSymbol: func(uint64, []byte, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(nil),
		Chooser: FixedChooser{K: 2, Mask: 0b111},
		Clock:   clock,
	}, []Link{loopLink{recv}, loopLink{recv}, loopLink{recv}})
	if err != nil {
		t.Fatal(err)
	}
	return snd, recv
}

func skipFootprint(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a quarter of a million symbols")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory and slowdown make the heap delta meaningless")
	}
}

// TestSessionFootprint bounds what one session that has carried traffic
// keeps on the heap: sender, receiver, their registries, two replay-window
// bitmaps — and none of the buffers the traffic went through, which belong
// to the process. Measured 12.2 KB; with a closed-seq map and ring per shard,
// a share-buffer freelist per shard and a scratch per sender it was 97.4 KB
// after the same 256 symbols, and still growing.
func TestSessionFootprint(t *testing.T) {
	skipFootprint(t)
	const (
		sessions      = 1024
		symbols       = 256
		burst         = 4
		maxPerSession = 15 << 10 // bytes: the measured figure + 25 %
	)
	var now time.Duration
	clock := func() time.Duration { now += time.Microsecond; return now }
	payloads := make([][]byte, burst)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i + 1)}, 1400)
	}

	base := liveHeap()
	senders := make([]*Sender, sessions)
	receivers := make([]*Receiver, sessions)
	for i := range senders {
		senders[i], receivers[i] = footprintPair(t, clock)
	}
	for sent := 0; sent < symbols; sent += burst {
		for _, s := range senders {
			if n, err := s.SendBatch(payloads); n != burst || err != nil {
				t.Fatalf("SendBatch sent %d of %d: %v", n, burst, err)
			}
		}
	}
	full := liveHeap()
	for _, r := range receivers {
		if st := r.Stats(); st.SymbolsDelivered != symbols || r.Pending() != 0 {
			t.Fatalf("a session delivered %d of %d symbols, %d pending", st.SymbolsDelivered, symbols, r.Pending())
		}
	}
	per := (float64(full) - float64(base)) / sessions
	t.Logf("%.0f B/session over %d sessions after %d symbols each", per, sessions, symbols)
	if per <= 0 || per > maxPerSession {
		t.Errorf("%.0f B/session, want in (0, %d]", per, maxPerSession)
	}
	runtime.KeepAlive(senders)
}

// TestSessionFootprintDoesNotGrow runs one session long enough to wrap its
// replay window and checks that what it holds at symbol 20 000 is what it
// held at symbol 2 000: the memory of delivered symbols is a fixed bitmap,
// where a map and a ring of closed seqs kept growing to 16 384 entries.
func TestSessionFootprintDoesNotGrow(t *testing.T) {
	skipFootprint(t)
	const slack = 8 << 10 // bytes: what two readings of an idle heap differ by
	var now time.Duration
	snd, recv := footprintPair(t, func() time.Duration { now += time.Microsecond; return now })
	payload := bytes.Repeat([]byte{7}, 1400)
	run := func(upTo int64) uint64 {
		for recv.Stats().SymbolsDelivered < upTo {
			if err := snd.Send(payload); err != nil {
				t.Fatal(err)
			}
		}
		return liveHeap()
	}
	early, late := run(2_000), run(20_000)
	t.Logf("live heap %d B at symbol 2 000, %d B at symbol 20 000", early, late)
	if late > early+slack {
		t.Errorf("the session grew by %d B between symbol 2 000 and symbol 20 000, want at most %d", late-early, slack)
	}
	runtime.KeepAlive(snd)
}
