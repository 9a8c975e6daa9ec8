package udptrans

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remicss/internal/remicss"
	"remicss/internal/sharing"
)

func TestLoopbackEndToEnd(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	scheme := sharing.NewAuto(rand.New(rand.NewSource(1)))
	var mu sync.Mutex
	delivered := make(map[uint64][]byte)
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: scheme,
		Clock:  WallClock,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			mu.Lock()
			delivered[seq] = payload
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	links := make([]remicss.Link, 0, 3)
	for _, addr := range listener.Addrs() {
		link, err := Dial(addr, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		links = append(links, link)
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: remicss.FixedChooser{K: 2, Mask: 0b111},
		Clock:   WallClock,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	const symbols = 50
	for i := 0; i < symbols; i++ {
		if err := snd.Send([]byte{byte(i), 0xAA, 0xBB}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n == symbols {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("delivered %d of %d before timeout", n, symbols)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for seq, payload := range delivered {
		want := []byte{byte(seq), 0xAA, 0xBB}
		if !bytes.Equal(payload, want) {
			t.Errorf("symbol %d = %v, want %v", seq, payload, want)
		}
	}
}

func TestPacingLimitsRate(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	link, err := Dial(listener.Addrs()[0], 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	// Drain the initial burst then count sends accepted in 200ms.
	for link.Send([]byte{0}) {
	}
	accepted := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		if link.Send([]byte{0}) {
			accepted++
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	// 100 pkt/s for 200ms is ~20 packets; allow generous slack for timers.
	if accepted < 10 || accepted > 40 {
		t.Errorf("accepted %d sends in 200ms at 100 pkt/s", accepted)
	}
}

func TestWritableAndBacklogTrackTokens(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	link, err := Dial(listener.Addrs()[0], 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	if !link.Writable() {
		t.Fatal("fresh paced link not writable")
	}
	if !link.Send([]byte{0}) {
		t.Fatal("first send rejected")
	}
	if link.Writable() {
		t.Error("link writable with empty bucket")
	}
	if link.Backlog() <= 0 {
		t.Error("empty bucket reports zero backlog")
	}
	time.Sleep(150 * time.Millisecond) // > 1 token at 10/s
	if !link.Writable() {
		t.Error("link not writable after refill")
	}
}

func TestUnlimitedLinkAlwaysWritable(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	link, err := Dial(listener.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	for i := 0; i < 100; i++ {
		if !link.Writable() {
			t.Fatal("unlimited link not writable")
		}
		if !link.Send([]byte{1}) {
			t.Fatal("unlimited link rejected send")
		}
	}
	if link.Backlog() != 0 {
		t.Error("unlimited link reports backlog")
	}
}

func TestClosedLink(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	link, err := Dial(listener.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	if link.Writable() {
		t.Error("closed link writable")
	}
	if link.Send([]byte{0}) {
		t.Error("closed link accepted send")
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(nil); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := Listen([]string{"not an address"}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("bad address", 0, 0); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := Dial("127.0.0.1:9", -1, 0); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestListenerCloseIdempotent(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	listener.ServeConcurrent(func([]byte) {})
	if err := listener.Close(); err != nil {
		t.Fatal(err)
	}
	if err := listener.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialImpairedValidation(t *testing.T) {
	if _, err := DialImpaired("127.0.0.1:9", 0, 0, Impairment{Loss: 1}); err == nil {
		t.Error("loss 1 accepted")
	}
	if _, err := DialImpaired("127.0.0.1:9", 0, 0, Impairment{Delay: -time.Second}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestImpairedLossDropsDatagrams(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	var mu sync.Mutex
	received := 0
	listener.ServeConcurrent(func([]byte) {
		mu.Lock()
		received++
		mu.Unlock()
	})

	link, err := DialImpaired(listener.Addrs()[0], 0, 0, Impairment{Loss: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	// Pace the sends: an unpaced blast overflows the kernel's receive
	// buffer and the measured loss would include kernel drops.
	const sent = 1000
	for i := 0; i < sent; i++ {
		if !link.Send([]byte{byte(i)}) {
			t.Fatal("impaired send rejected")
		}
		if i%20 == 19 {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	got := received
	mu.Unlock()
	// ~50% loss; loopback itself is effectively lossless at this rate.
	if got < sent*35/100 || got > sent*65/100 {
		t.Errorf("received %d of %d with 50%% impairment", got, sent)
	}
}
