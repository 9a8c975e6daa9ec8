package udptrans

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestLinkCloseIdempotent checks a second Close is a no-op, not a second
// close of the socket.
func TestLinkCloseIdempotent(t *testing.T) {
	lis, err := Listen([]string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	link, err := Dial(lis.Addrs()[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := link.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// TestLinkCloseRacesSendBatch closes a link under senders on both entry
// points, one of them impaired so delay timers are pending at Close: no
// race, no panic, and nothing is accepted once Close has returned.
func TestLinkCloseRacesSendBatch(t *testing.T) {
	forEachBatchMode(t, func(t *testing.T) {
		lis, err := Listen([]string{"127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		defer lis.Close()
		lis.ServeBatch(func([]byte) {})
		for _, im := range []Impairment{{}, {Loss: 0.2, Delay: time.Millisecond, Seed: 3}} {
			link, err := DialImpaired(lis.Addrs()[0], 0, 0, im)
			if err != nil {
				t.Fatal(err)
			}
			burst := allocBurst()
			stop := make(chan struct{})
			var senders sync.WaitGroup
			for g := 0; g < 4; g++ {
				g := g
				senders.Add(1)
				go func() {
					defer senders.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if g%2 == 0 {
							link.SendBatch(burst)
						} else {
							link.Send(burst[0])
						}
					}
				}()
			}
			time.Sleep(5 * time.Millisecond)
			if err := link.Close(); err != nil {
				t.Fatal(err)
			}
			if n := link.SendBatch(burst); n != 0 || link.Send(burst[0]) {
				t.Fatalf("a closed link accepted datagrams (SendBatch took %d)", n)
			}
			close(stop)
			senders.Wait()
		}
	})
}

// settledGoroutines is the goroutine count once goroutines that earlier
// tests left exiting (timers, closed readers) are gone: two readings 5 ms
// apart that agree.
func settledGoroutines() int {
	for n := runtime.NumGoroutine(); ; {
		time.Sleep(5 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			return n
		}
		n = next
	}
}

// TestListenerCloseStopsReaders checks, for both serving entry points under
// every batch mode, that Close returns only once the reader goroutines have
// exited — none is left behind — and that a second Close is a no-op.
func TestListenerCloseStopsReaders(t *testing.T) {
	forEachBatchMode(t, func(t *testing.T) {
		for _, tc := range []struct {
			name  string
			serve func(*Listener, func([]byte))
		}{
			{"ServeConcurrent", (*Listener).ServeConcurrent},
			{"ServeBatch", (*Listener).ServeBatch},
		} {
			t.Run(tc.name, func(t *testing.T) {
				before := settledGoroutines()
				lis, err := Listen([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
				if err != nil {
					t.Fatal(err)
				}
				got := make(chan struct{}, 3)
				tc.serve(lis, func([]byte) { got <- struct{}{} })
				for _, addr := range lis.Addrs() {
					link, err := Dial(addr, 0, 0)
					if err != nil {
						t.Fatal(err)
					}
					link.Send([]byte{1})
					link.Close()
				}
				for range lis.Addrs() {
					select {
					case <-got:
					case <-time.After(5 * time.Second):
						t.Fatal("a reader never delivered its datagram")
					}
				}
				for i := 0; i < 2; i++ {
					if err := lis.Close(); err != nil {
						t.Fatalf("Close #%d: %v", i+1, err)
					}
				}
				// Close waited for every reader's deferred Done; give the
				// runtime a moment to retire the goroutines behind them.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("%d goroutines after Close, %d before Listen: a reader was left behind", n, before)
				}
			})
		}
	})
}
