package remicss

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/core"
	"remicss/internal/netem"
	"remicss/internal/schedule"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// testBed wires a sender and receiver across emulated links.
type testBed struct {
	eng      *netem.Engine
	links    []*netem.Link
	sender   *Sender
	receiver *Receiver

	delivered map[uint64][]byte
	delays    []time.Duration
}

func newTestBed(t *testing.T, cfgs []netem.LinkConfig, chooser Chooser, seed int64) *testBed {
	t.Helper()
	tb := &testBed{
		eng:       netem.NewEngine(),
		delivered: make(map[uint64][]byte),
	}
	scheme := sharing.NewAuto(rand.New(rand.NewSource(seed)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme: scheme,
		Clock:  tb.eng.Now,
		OnSymbol: func(seq uint64, payload []byte, delay time.Duration) {
			tb.delivered[seq] = payload
			tb.delays = append(tb.delays, delay)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.receiver = recv

	rlinks := make([]Link, len(cfgs))
	for i, cfg := range cfgs {
		link, err := netem.NewLink(tb.eng, cfg, rand.New(rand.NewSource(seed+int64(i)+1)),
			func(payload []byte, _ time.Duration) { recv.HandleDatagram(payload) })
		if err != nil {
			t.Fatal(err)
		}
		tb.links = append(tb.links, link)
		rlinks[i] = link
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   tb.eng.Now,
	}, rlinks)
	if err != nil {
		t.Fatal(err)
	}
	tb.sender = snd
	return tb
}

func fiveIdentical(rate float64) []netem.LinkConfig {
	cfgs := make([]netem.LinkConfig, 5)
	for i := range cfgs {
		cfgs[i] = netem.LinkConfig{Rate: rate}
	}
	return cfgs
}

func TestEndToEndSingleSymbol(t *testing.T) {
	chooser := FixedChooser{K: 3, Mask: 0b11111}
	tb := newTestBed(t, fiveIdentical(100), chooser, 1)
	payload := []byte("perfectly secure message transmission")
	if err := tb.sender.Send(payload); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunUntilIdle()
	got, ok := tb.delivered[0]
	if !ok {
		t.Fatal("symbol not delivered")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("delivered %q, want %q", got, payload)
	}
	if tb.receiver.Stats().SymbolsDelivered != 1 {
		t.Errorf("delivered count = %d", tb.receiver.Stats().SymbolsDelivered)
	}
}

func TestEndToEndManySymbolsAllParams(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for m := k; m <= 5; m++ {
			chooser := FixedChooser{K: k, Mask: uint32(1<<m) - 1}
			tb := newTestBed(t, fiveIdentical(1000), chooser, int64(k*10+m))
			const symbols = 50
			var offer func()
			sent := 0
			offer = func() {
				payload := []byte{byte(sent), byte(k), byte(m), 0xAA}
				if err := tb.sender.Send(payload); err == nil {
					sent++
				}
				if sent < symbols {
					tb.eng.Schedule(10*time.Millisecond, offer)
				}
			}
			tb.eng.Schedule(0, offer)
			tb.eng.RunUntilIdle()
			if len(tb.delivered) != symbols {
				t.Errorf("k=%d m=%d: delivered %d of %d", k, m, len(tb.delivered), symbols)
			}
			for seq, payload := range tb.delivered {
				if payload[0] != byte(seq) {
					t.Errorf("k=%d m=%d: symbol %d corrupted", k, m, seq)
				}
			}
		}
	}
}

func TestLossToleratedUpToThreshold(t *testing.T) {
	// k=2, m=5 with one very lossy channel: nearly everything should still
	// arrive.
	cfgs := fiveIdentical(1000)
	cfgs[0].Loss = 0.9
	chooser := FixedChooser{K: 2, Mask: 0b11111}
	tb := newTestBed(t, cfgs, chooser, 3)
	const symbols = 200
	sent := 0
	var offer func()
	offer = func() {
		if err := tb.sender.Send([]byte{byte(sent), 1, 2, 3}); err == nil {
			sent++
		}
		if sent < symbols {
			tb.eng.Schedule(5*time.Millisecond, offer)
		}
	}
	tb.eng.Schedule(0, offer)
	tb.eng.RunUntilIdle()
	if len(tb.delivered) != symbols {
		t.Errorf("delivered %d of %d despite m-k = 3 redundancy", len(tb.delivered), symbols)
	}
}

func TestDelayIsKthSmallest(t *testing.T) {
	// Channels with staggered delays; k=3 of 5 means delivery at the 3rd
	// smallest delay (plus serialization).
	cfgs := fiveIdentical(1e6)
	delays := []time.Duration{50, 10, 90, 30, 70}
	for i := range cfgs {
		cfgs[i].Delay = delays[i] * time.Millisecond
	}
	chooser := FixedChooser{K: 3, Mask: 0b11111}
	tb := newTestBed(t, cfgs, chooser, 4)
	if err := tb.sender.Send([]byte("delayed")); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunUntilIdle()
	if len(tb.delays) != 1 {
		t.Fatalf("got %d deliveries", len(tb.delays))
	}
	// 3rd smallest of {50,10,90,30,70} = 50ms, plus 1us serialization.
	got := tb.delays[0]
	want := 50*time.Millisecond + time.Microsecond
	if got != want {
		t.Errorf("delay = %v, want %v", got, want)
	}
}

func TestDynamicChooserAverages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewDynamicChooser(2.3, 3.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 5)
	eng := netem.NewEngine()
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1e6}, rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	const draws = 100000
	var kSum, mSum float64
	for i := 0; i < draws; i++ {
		k, mask, ok := c.Choose(links)
		if !ok {
			t.Fatal("choose failed with all channels writable")
		}
		m := 0
		for b := mask; b != 0; b &= b - 1 {
			m++
		}
		if k > m {
			t.Fatalf("k=%d > m=%d", k, m)
		}
		kSum += float64(k)
		mSum += float64(m)
	}
	if got := kSum / draws; math.Abs(got-2.3) > 0.02 {
		t.Errorf("average k = %v, want 2.3", got)
	}
	if got := mSum / draws; math.Abs(got-3.7) > 0.02 {
		t.Errorf("average m = %v, want 3.7", got)
	}
}

func TestDynamicChooserSkipsUnwritable(t *testing.T) {
	eng := netem.NewEngine()
	links := make([]Link, 3)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1, QueueLimit: 1},
			rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	// Fill channel 0's queue.
	links[0].Send([]byte{0})
	c, err := NewDynamicChooser(1, 2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, mask, ok := c.Choose(links)
		if !ok {
			t.Fatal("choose failed with 2 writable channels")
		}
		if mask&1 != 0 {
			t.Fatal("chooser picked the unwritable channel")
		}
	}
	// Fill all queues: chooser must report backpressure.
	links[1].Send([]byte{0})
	links[2].Send([]byte{0})
	if _, _, ok := c.Choose(links); ok {
		t.Error("choose succeeded with no writable channels")
	}
}

func TestDynamicChooserValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewDynamicChooser(0.5, 2, rng); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("kappa < 1 accepted")
	}
	if _, err := NewDynamicChooser(3, 2, rng); !errors.Is(err, core.ErrInvalidParams) {
		t.Error("mu < kappa accepted")
	}
	if _, err := NewDynamicChooser(1, 2, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestStaticChooserFollowsSchedule(t *testing.T) {
	s := core.Set{
		{Risk: 0.2, Rate: 100},
		{Risk: 0.2, Rate: 100},
		{Risk: 0.2, Rate: 100},
	}
	sched, err := schedule.Optimize(s, 1.5, 2.5, schedule.ObjectiveRisk, schedule.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chooser, err := NewStaticChooser(sched, 3, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 3)
	eng := netem.NewEngine()
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1e6}, rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	const draws = 50000
	var kSum, mSum float64
	for i := 0; i < draws; i++ {
		k, mask, ok := chooser.Choose(links)
		if !ok {
			t.Fatal("static choose failed")
		}
		m := 0
		for b := mask; b != 0; b &= b - 1 {
			m++
		}
		kSum += float64(k)
		mSum += float64(m)
	}
	if got := kSum / draws; math.Abs(got-1.5) > 0.02 {
		t.Errorf("average k = %v, want 1.5", got)
	}
	if got := mSum / draws; math.Abs(got-2.5) > 0.02 {
		t.Errorf("average m = %v, want 2.5", got)
	}
}

func TestReceiverDuplicateAndLateShares(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(9)))
	clock := time.Duration(0)
	var delivered int
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    func() time.Duration { return clock },
		OnSymbol: func(uint64, []byte, time.Duration) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := scheme.Split([]byte("dup test"), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) []byte {
		buf, err := wire.Marshal(wire.SharePacket{
			Seq: 7, K: 2, M: 3, Index: uint8(shares[i].Index), Payload: shares[i].Data,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	recv.HandleDatagram(mk(0))
	recv.HandleDatagram(mk(0)) // duplicate
	if got := recv.Stats().SharesDuplicate; got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	recv.HandleDatagram(mk(1)) // completes
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	recv.HandleDatagram(mk(2)) // late
	if got := recv.Stats().SharesLate; got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
	if delivered != 1 {
		t.Errorf("delivered twice")
	}
}

func TestReceiverRejectsCorruptAndInconsistent(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(10)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    func() time.Duration { return 0 },
		OnSymbol: func(uint64, []byte, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Garbage datagram.
	recv.HandleDatagram([]byte("not a share"))
	if got := recv.Stats().SharesInvalid; got != 1 {
		t.Errorf("invalid = %d, want 1", got)
	}
	// The same datagram twice with an index beyond the held-index mask's
	// width: the wire format admits it, no sender can produce it. It must
	// not open an entry, where the second copy would pass the duplicate
	// check and close the symbol with a failed combine.
	wide, err := wire.Marshal(wire.SharePacket{Seq: 2, K: 2, M: 41, Index: 40, Payload: []byte{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	recv.HandleDatagram(wide)
	recv.HandleDatagram(wide)
	if st := recv.Stats(); st.SharesInvalid != 3 || st.SharesReceived != 0 || st.CombineFailures != 0 {
		t.Errorf("after two wide shares: %+v, want 3 invalid, 0 received, 0 combine failures", st)
	}
	if got := recv.Pending(); got != 0 {
		t.Errorf("pending = %d, want 0: a wide share opened an entry", got)
	}
	// Two shares of the same seq disagreeing on (k, m).
	b1, err := wire.Marshal(wire.SharePacket{Seq: 1, K: 2, M: 3, Index: 0, Payload: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := wire.Marshal(wire.SharePacket{Seq: 1, K: 3, M: 4, Index: 1, Payload: []byte{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	recv.HandleDatagram(b1)
	recv.HandleDatagram(b2)
	if got := recv.Stats().SharesInvalid; got != 4 {
		t.Errorf("invalid = %d, want 4", got)
	}
}

func TestReceiverTimeoutEviction(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(11)))
	clock := time.Duration(0)
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    func() time.Duration { return clock },
		OnSymbol: func(uint64, []byte, time.Duration) {},
		Timeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := scheme.Split([]byte("evict me"), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := wire.Marshal(wire.SharePacket{
		Seq: 1, K: 2, M: 3, Index: uint8(shares[0].Index), Payload: shares[0].Data,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv.HandleDatagram(buf)
	if recv.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", recv.Pending())
	}
	clock = 2 * time.Second
	recv.Tick()
	if recv.Pending() != 0 {
		t.Errorf("pending = %d after timeout, want 0", recv.Pending())
	}
	if got := recv.Stats().SymbolsEvicted; got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
}

func TestReceiverMemoryPressureEviction(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(12)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:     scheme,
		Clock:      func() time.Duration { return 0 },
		OnSymbol:   func(uint64, []byte, time.Duration) {},
		MaxPending: 10,
		Shards:     1, // the exact oldest-first eviction count below needs one global LRU
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 partial symbols: only the newest 10 survive.
	for seq := uint64(0); seq < 20; seq++ {
		buf, err := wire.Marshal(wire.SharePacket{Seq: seq, K: 2, M: 2, Index: 0, Payload: []byte{1}})
		if err != nil {
			t.Fatal(err)
		}
		recv.HandleDatagram(buf)
	}
	if recv.Pending() != 10 {
		t.Errorf("pending = %d, want 10", recv.Pending())
	}
	if got := recv.Stats().SymbolsEvicted; got != 10 {
		t.Errorf("evicted = %d, want 10", got)
	}
}

func TestSenderBackpressure(t *testing.T) {
	// One link, queue limit 1, slow rate: second immediate send stalls.
	eng := netem.NewEngine()
	link, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1, QueueLimit: 1},
		rand.New(rand.NewSource(13)), nil)
	if err != nil {
		t.Fatal(err)
	}
	chooser, err := NewDynamicChooser(1, 1, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  sharing.NewAuto(rand.New(rand.NewSource(15))),
		Chooser: chooser,
		Clock:   eng.Now,
	}, []Link{link})
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Send([]byte{1}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if err := snd.Send([]byte{2}); !errors.Is(err, ErrBackpressure) {
		t.Errorf("second send = %v, want ErrBackpressure", err)
	}
	st := snd.Stats()
	if st.SymbolsSent != 1 || st.SymbolsStalled != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSenderConfigValidation(t *testing.T) {
	eng := netem.NewEngine()
	link, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	scheme := sharing.NewAuto(nil)
	chooser := FixedChooser{K: 1, Mask: 1}
	clock := eng.Now
	if _, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser, Clock: clock}, nil); !errors.Is(err, ErrNoLinks) {
		t.Error("no links accepted")
	}
	if _, err := NewSender(SenderConfig{Chooser: chooser, Clock: clock}, []Link{link}); err == nil {
		t.Error("nil scheme accepted")
	}
	if _, err := NewSender(SenderConfig{Scheme: scheme, Clock: clock}, []Link{link}); err == nil {
		t.Error("nil chooser accepted")
	}
	if _, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser}, []Link{link}); err == nil {
		t.Error("nil clock accepted")
	}
}

func TestReceiverConfigValidation(t *testing.T) {
	scheme := sharing.NewAuto(nil)
	clock := func() time.Duration { return 0 }
	cb := func(uint64, []byte, time.Duration) {}
	if _, err := NewReceiver(ReceiverConfig{Clock: clock, OnSymbol: cb}); err == nil {
		t.Error("nil scheme accepted")
	}
	if _, err := NewReceiver(ReceiverConfig{Scheme: scheme, OnSymbol: cb}); err == nil {
		t.Error("nil clock accepted")
	}
	if _, err := NewReceiver(ReceiverConfig{Scheme: scheme, Clock: clock}); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestFixedChooserValidation(t *testing.T) {
	links := make([]Link, 2)
	eng := netem.NewEngine()
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1}, rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	if _, _, ok := (FixedChooser{K: 1, Mask: 0b100}).Choose(links); ok {
		t.Error("mask beyond links accepted")
	}
	if _, _, ok := (FixedChooser{K: 0, Mask: 0b11}).Choose(links); ok {
		t.Error("k=0 accepted")
	}
	if _, _, ok := (FixedChooser{K: 1, Mask: 0}).Choose(links); ok {
		t.Error("empty mask accepted")
	}
}

func BenchmarkEndToEnd3of5(b *testing.B) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    eng.Now,
		OnSymbol: func(uint64, []byte, time.Duration) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	links := make([]Link, 5)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1e9, QueueLimit: 1 << 20},
			rand.New(rand.NewSource(int64(i))),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			b.Fatal(err)
		}
		links[i] = l
	}
	snd, err := NewSender(SenderConfig{
		Scheme:  scheme,
		Chooser: FixedChooser{K: 3, Mask: 0b11111},
		Clock:   eng.Now,
	}, links)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x77}, 1400)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snd.Send(payload); err != nil {
			b.Fatal(err)
		}
		if i%256 == 0 {
			eng.RunUntilIdle()
		}
	}
	eng.RunUntilIdle()
}
