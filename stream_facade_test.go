package remicss_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remicss"
)

// TestStreamOverUDP pushes an ordered byte stream through the full stack:
// StreamWriter -> Sender -> UDP channels -> Receiver -> StreamOrderer.
func TestStreamOverUDP(t *testing.T) {
	listener, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	scheme := remicss.NewSharingScheme(rand.New(rand.NewSource(1)))
	var mu sync.Mutex
	var out bytes.Buffer
	orderer, err := remicss.NewStreamOrderer(256, func(_ uint64, p []byte) { out.Write(p) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: scheme,
		Clock:  remicss.WallClock,
		OnSymbol: func(seq uint64, payload []byte, _ time.Duration) {
			mu.Lock()
			orderer.Push(seq, payload)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	links, err := remicss.DialUDP(listener.Addrs(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, l := range links {
			l.(*remicss.UDPLink).Close()
		}
	}()
	chooser, err := remicss.NewDynamicChooser(2, 3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   remicss.WallClock,
	}, links)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := remicss.NewStreamWriter(snd.Send, 512, func(err error) bool {
		if errors.Is(err, remicss.ErrBackpressure) {
			time.Sleep(time.Millisecond)
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := writer.Write(data); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := out.Len()
		mu.Unlock()
		if n >= len(data) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	orderer.Flush()
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("stream corrupted: got %d bytes, want %d (skipped %d)",
			out.Len(), len(data), orderer.Stats().Skipped)
	}
}
