package remicss

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/netem"
	"remicss/internal/sharing"
	"remicss/internal/wire"
)

// TestDynamicChooserSurvivesChannelDeath kills a channel mid-stream; the
// dynamic chooser must route around it and keep delivering as long as
// enough channels survive for m.
func TestDynamicChooserSurvivesChannelDeath(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	delivered := 0
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    eng.Now,
		OnSymbol: func(uint64, []byte, time.Duration) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	var netLinks []*netem.Link
	links := make([]Link, 5)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000},
			rand.New(rand.NewSource(int64(i)+2)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			t.Fatal(err)
		}
		netLinks = append(netLinks, l)
		links[i] = l
	}
	chooser, err := NewDynamicChooser(2, 3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser, Clock: eng.Now}, links)
	if err != nil {
		t.Fatal(err)
	}

	sent := 0
	var offer func()
	offer = func() {
		if err := snd.Send([]byte{byte(sent)}); err == nil {
			sent++
		}
		if eng.Now() < 2*time.Second {
			eng.Schedule(2*time.Millisecond, offer)
		}
	}
	eng.Schedule(0, offer)
	// Kill two channels partway through: 3 remain, still >= m = 3..4?
	// mu=3 dithers m in {3}; exactly 3 channels remain, so sending can
	// continue on the survivors.
	eng.Schedule(time.Second, func() {
		netLinks[0].SetDown(true)
		netLinks[4].SetDown(true)
	})
	eng.Run(2 * time.Second)
	eng.RunUntilIdle()

	if delivered != sent {
		t.Errorf("delivered %d of %d sent symbols", delivered, sent)
	}
	if sent < 500 {
		t.Errorf("only %d symbols sent; chooser did not keep up after failure", sent)
	}
	// The downed channels must not have carried anything after death:
	// their post-death share counts stay flat (we check drops accrued).
	if netLinks[0].Stats().Dropped == 0 && netLinks[4].Stats().Dropped != 0 {
		t.Log("no shares even attempted on dead channels (chooser skipped them)")
	}
}

// TestTooFewSurvivorsBackpressure: when fewer channels survive than m, the
// sender reports backpressure instead of sending undersized splits.
func TestTooFewSurvivorsBackpressure(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	var netLinks []*netem.Link
	links := make([]Link, 3)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{Rate: 1000},
			rand.New(rand.NewSource(int64(i)+2)), nil)
		if err != nil {
			t.Fatal(err)
		}
		netLinks = append(netLinks, l)
		links[i] = l
	}
	chooser, err := NewDynamicChooser(2, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser, Clock: eng.Now}, links)
	if err != nil {
		t.Fatal(err)
	}
	netLinks[1].SetDown(true)
	for i := 0; i < 10; i++ {
		if err := snd.Send([]byte{1}); err == nil {
			t.Fatal("send succeeded with only 2 of 3 channels for m=3")
		}
	}
	if got := snd.Stats().SymbolsStalled; got != 10 {
		t.Errorf("stalled = %d, want 10", got)
	}
}

// TestReceiverHandlesReorderedShares delivers shares of interleaved symbols
// out of order; reassembly must still complete every symbol.
func TestReceiverHandlesReorderedShares(t *testing.T) {
	scheme := sharing.NewAuto(rand.New(rand.NewSource(5)))
	delivered := map[uint64][]byte{}
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:   scheme,
		Clock:    func() time.Duration { return 0 },
		OnSymbol: func(seq uint64, p []byte, _ time.Duration) { delivered[seq] = bytes.Clone(p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build shares for 20 symbols, then deliver all shares shuffled.
	var datagrams [][]byte
	for seq := uint64(0); seq < 20; seq++ {
		payload := []byte{byte(seq), 0xEE}
		shares, err := scheme.SplitSharesInto(payload, 2, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			buf, err := wire.AppendMarshal(nil, wire.SharePacket{
				Seq: seq, K: 2, M: 3, Index: uint8(sh.Index), Payload: sh.Data,
			})
			if err != nil {
				t.Fatal(err)
			}
			datagrams = append(datagrams, buf)
		}
	}
	rng := rand.New(rand.NewSource(6))
	rng.Shuffle(len(datagrams), func(i, j int) {
		datagrams[i], datagrams[j] = datagrams[j], datagrams[i]
	})
	for _, d := range datagrams {
		recv.HandleDatagram(d)
	}
	if len(delivered) != 20 {
		t.Fatalf("delivered %d of 20 symbols", len(delivered))
	}
	for seq, p := range delivered {
		if p[0] != byte(seq) {
			t.Errorf("symbol %d corrupted", seq)
		}
	}
	if got := recv.Stats().SharesLate; got != 20 {
		// Each symbol has 3 shares, completion at the 2nd, 3rd arrives late.
		t.Errorf("late shares = %d, want 20", got)
	}
}

// TestEndToEndWithJitterAndLoss is a torture run: every channel jittery and
// lossy, interleaved reassembly with eviction under memory pressure.
func TestEndToEndWithJitterAndLoss(t *testing.T) {
	eng := netem.NewEngine()
	scheme := sharing.NewAuto(rand.New(rand.NewSource(7)))
	delivered := 0
	recv, err := NewReceiver(ReceiverConfig{
		Scheme:     scheme,
		Clock:      eng.Now,
		OnSymbol:   func(uint64, []byte, time.Duration) { delivered++ },
		Timeout:    300 * time.Millisecond,
		MaxPending: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	links := make([]Link, 5)
	for i := range links {
		l, err := netem.NewLink(eng, netem.LinkConfig{
			Rate:   2000,
			Loss:   0.05,
			Delay:  time.Duration(i+1) * 2 * time.Millisecond,
			Jitter: 4 * time.Millisecond,
		}, rand.New(rand.NewSource(int64(i)+8)),
			func(p []byte, _ time.Duration) { recv.HandleDatagram(p) })
		if err != nil {
			t.Fatal(err)
		}
		links[i] = l
	}
	chooser, err := NewDynamicChooser(2, 4, rand.New(rand.NewSource(20)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(SenderConfig{Scheme: scheme, Chooser: chooser, Clock: eng.Now}, links)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	var offer func()
	offer = func() {
		if err := snd.Send([]byte{byte(sent), byte(sent >> 8)}); err == nil {
			sent++
		}
		if eng.Now() < 3*time.Second {
			eng.Schedule(time.Millisecond, offer)
		}
	}
	eng.Schedule(0, offer)
	eng.Run(3 * time.Second)
	eng.RunUntilIdle()

	if sent == 0 {
		t.Fatal("nothing sent")
	}
	// k=2 of m=4 with 5% share loss: symbol loss ~ P(>=3 of 4 lost) ~ 5e-4.
	lossFrac := 1 - float64(delivered)/float64(sent)
	if lossFrac > 0.01 {
		t.Errorf("symbol loss %v too high for k=2, m=4 at 5%% share loss", lossFrac)
	}
}
