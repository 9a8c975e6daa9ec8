package udptrans

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remicss/internal/remicss"
	"remicss/internal/sharing"
)

// TestConcurrentSendAndServe runs the full concurrent deployment shape
// over real loopback sockets: several goroutines share one sender, and
// ServeConcurrent feeds the receiver from one reader goroutine per
// channel with no copying or serialization in the transport. Under -race
// this checks the locking end to end. UDP is lossy even on loopback, so
// the delivery assertion is a tolerant floor — replication (k=1 over 3
// channels) makes any single surviving share sufficient.
func TestConcurrentSendAndServe(t *testing.T) {
	listener, err := Listen([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	const (
		senders   = 4
		perSender = 100
	)
	total := senders * perSender

	var mu sync.Mutex
	seen := make(map[uint64]bool, total)
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: sharing.NewAuto(rand.New(rand.NewSource(1))),
		Clock:  WallClock,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			if len(payload) < 8 {
				t.Errorf("short payload: %d bytes", len(payload))
				return
			}
			id := binary.BigEndian.Uint64(payload)
			if id >= uint64(total) {
				t.Errorf("delivered id %d out of range", id)
				return
			}
			for _, b := range payload[8:] {
				if b != byte(id) {
					t.Errorf("id %d: corrupted payload", id)
					break
				}
			}
			mu.Lock()
			seen[id] = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	var links []remicss.Link
	for _, addr := range listener.Addrs() {
		l, err := Dial(addr, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		links = append(links, l)
	}
	sender, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  sharing.NewAuto(rand.New(rand.NewSource(1))),
		Chooser: remicss.FixedChooser{K: 1, Mask: 0b111},
		Clock:   WallClock,
	}, links)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 256)
			for i := 0; i < perSender; i++ {
				id := uint64(g*perSender + i)
				binary.BigEndian.PutUint64(payload, id)
				for j := 8; j < len(payload); j++ {
					payload[j] = byte(id)
				}
				if err := sender.Send(payload); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				// Pace the sends: with every P busy sending, the readers
				// are not scheduled until the blast is over, and each
				// socket keeps only the first ~166 datagrams (212992-byte
				// default receive buffer) whichever symbols they carry.
				if i%20 == 19 {
					time.Sleep(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == total {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	delivered := len(seen)
	mu.Unlock()
	// Socket buffers can overflow under a four-goroutine burst; require a
	// comfortable majority rather than inviting flakes.
	if delivered < total/2 {
		t.Errorf("delivered %d of %d symbols, want at least %d", delivered, total, total/2)
	}
}
