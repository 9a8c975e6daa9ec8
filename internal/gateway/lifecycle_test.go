package gateway

import (
	"sync"
	"testing"
	"time"

	"remicss/internal/udptrans"
)

// TestPoolCloseIdempotent checks a second Close neither closes the sockets
// again nor flushes into the closed links.
func TestPoolCloseIdempotent(t *testing.T) {
	lis, err := udptrans.Listen([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	pool, err := DialPool(lis.Addrs(), PoolConfig{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool.SessionLinks()[0].Send([]byte("pending at close"))
	for i := 0; i < 2; i++ {
		if err := pool.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// TestPoolCloseRacesFlush closes a pool while sessions enqueue and flush
// through it: no race, no panic, and Close returns with the senders still
// running (what they enqueue afterwards the closed links refuse).
func TestPoolCloseRacesFlush(t *testing.T) {
	lis, err := udptrans.Listen([]string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	lis.ServeBatch(func([]byte) {})
	pool, err := DialPool(lis.Addrs(), PoolConfig{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		senders.Add(1)
		go func() {
			defer senders.Done()
			link := pool.SessionLinks()[g%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				link.Send([]byte{byte(g), byte(i)})
				if i%3 == 0 {
					pool.Flush()
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	senders.Wait()
}
