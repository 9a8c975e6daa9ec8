// Streaming example: carry an ordered byte stream over lossy UDP channels.
// The protocol is per-symbol and best-effort; the stream adapters chunk on
// the way in and re-sequence on the way out, while m−k share redundancy
// absorbs the channel loss — no retransmission anywhere.
//
// Channel loss is emulated in userspace (remicss.DialUDPImpaired), so the
// example runs on any machine without traffic-control privileges.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"remicss"
)

func main() {
	// Receiving side: three UDP sockets feeding a reassembly receiver,
	// whose symbols feed an in-order jitter buffer.
	listener, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer listener.Close()

	// The stream: 256 KiB of structured data, sent in 1 KiB chunks, so
	// symbol seq carries data[seq*chunk:].
	const chunk = 1024
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i % 251)
	}

	var mu sync.Mutex
	var out bytes.Buffer
	var gaps, corrupted uint64
	orderer, err := remicss.NewStreamOrderer(512,
		func(seq uint64, p []byte) {
			// Every chunk must be the right bytes, whatever gaps were skipped.
			if off := seq * chunk; off >= uint64(len(data)) || !bytes.Equal(p, data[off:min(off+chunk, uint64(len(data)))]) {
				corrupted++
			}
			out.Write(p)
		},
		func(_, n uint64) { gaps += n })
	if err != nil {
		log.Fatal(err)
	}
	scheme := remicss.NewSharingScheme(nil)
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
		log.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	// Sending side: every channel drops 10% of datagrams and adds a little
	// delay — emulated in userspace.
	impairments := []remicss.UDPImpairment{
		{Loss: 0.10, Delay: 3 * time.Millisecond, Seed: 1},
		{Loss: 0.10, Delay: 8 * time.Millisecond, Seed: 2},
		{Loss: 0.10, Delay: 1 * time.Millisecond, Seed: 3},
	}
	// Pace each channel at 2000 pkt/s: an unpaced blast would overflow the
	// kernel's loopback receive buffer and masquerade as channel loss. The
	// writer's retry policy absorbs the resulting backpressure.
	rates := []float64{2000, 2000, 2000}
	links, err := remicss.DialUDPImpaired(listener.Addrs(), rates, 8, impairments)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, l := range links {
			l.(*remicss.UDPLink).Close()
		}
	}()

	// κ=1, μ=3: privacy is not the point here — loss tolerance is. Each
	// symbol survives unless all three copies of a share... all three
	// channels drop it: p ≈ 0.1³ = 0.1%.
	chooser, err := remicss.NewDynamicChooser(1, 3, rand.New(rand.NewSource(4)))
	if err != nil {
		log.Fatal(err)
	}
	snd, err := remicss.NewSender(remicss.SenderConfig{
		Scheme:  scheme,
		Chooser: chooser,
		Clock:   remicss.WallClock,
	}, links)
	if err != nil {
		log.Fatal(err)
	}
	writer, err := remicss.NewStreamWriter(snd.Send, chunk, func(err error) bool {
		if errors.Is(err, remicss.ErrBackpressure) {
			time.Sleep(time.Millisecond)
			return true
		}
		return false
	})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	if _, err := writer.Write(data); err != nil {
		log.Fatal(err)
	}

	// Wait for the stream to drain, then flush remaining gaps.
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
	orderer.Flush()
	ok := bytes.Equal(out.Bytes(), data)
	st := orderer.Stats()
	bad := corrupted
	mu.Unlock()

	fmt.Printf("streamed %d KiB over 3 channels with 10%% loss each in %v\n",
		len(data)>>10, time.Since(start).Round(time.Millisecond))
	fmt.Printf("symbols delivered in order: %d, skipped: %d, stream intact: %v\n",
		st.Delivered, st.Skipped, ok)
	sst := snd.Stats()
	fmt.Printf("shares sent: %d (3 per symbol; per-symbol survival ≈ 99.9%%)\n", sst.SharesSent)
	if bad > 0 {
		log.Fatalf("%d chunks delivered with the wrong bytes", bad)
	}
	if !ok && st.Skipped == 0 {
		log.Fatal("stream corrupted without recorded gaps")
	}
}
