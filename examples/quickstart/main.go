// Quickstart: model a channel set, pick parameters, and move secret data
// over real UDP channels with the ReMICSS protocol — no single channel ever
// carries enough to reconstruct a symbol.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"remicss"
)

func main() {
	// 1. Describe the available channels: (risk, loss, delay, rate).
	set := remicss.ChannelSet{
		{Risk: 0.30, Loss: 0.01, Delay: 3 * time.Millisecond, Rate: 500},
		{Risk: 0.10, Loss: 0.02, Delay: 8 * time.Millisecond, Rate: 2000},
		{Risk: 0.20, Loss: 0.005, Delay: 1 * time.Millisecond, Rate: 1000},
	}
	if err := set.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. What does the model promise? (Paper Section IV.)
	fmt.Printf("best possible risk  (κ=μ=n): %.4f\n", set.MaxPrivacyRisk())
	fmt.Printf("best possible loss  (κ=1,μ=n): %.6f\n", set.MinLoss())
	fmt.Printf("best possible delay (κ=1,μ=n): %.2fms\n", set.MinDelay()*1e3)
	fmt.Printf("best possible rate  (κ=μ=1): %.0f symbols/s\n", set.MaxRate())

	// 3. Pick a tradeoff: κ=2 (an adversary needs two channels), μ=3 (one
	// share loss tolerated), and see the full profile at optimal rate.
	params := remicss.Params{Kappa: 2, Mu: 3}
	prof, err := params.Profile(set)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nκ=2, μ=3 profile: rate %.0f sym/s, risk %.4f, loss %.6f, delay %v\n",
		prof.Rate, prof.Risk, prof.Loss, prof.Delay)

	// 4. Move real data: a UDP session on loopback, one socket per channel.
	listener, err := remicss.ListenUDP([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer listener.Close()

	scheme := remicss.NewSharingScheme(nil)
	var mu sync.Mutex
	got := map[uint64]string{}
	recv, err := remicss.NewReceiver(remicss.ReceiverConfig{
		Scheme: scheme,
		Clock:  remicss.WallClock,
		OnSymbol: func(seq uint64, payload []byte, delay time.Duration) {
			mu.Lock()
			got[seq] = string(payload)
			mu.Unlock()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	listener.ServeConcurrent(recv.HandleDatagram)

	links, err := remicss.DialUDP(listener.Addrs(), nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	chooser, err := remicss.NewDynamicChooser(params.Kappa, params.Mu, rand.New(rand.NewSource(1)))
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

	messages := []string{
		"meet at the north gate",
		"bring the documents",
		"midnight, not before",
	}
	for _, m := range messages {
		if err := snd.Send([]byte(m)); err != nil {
			log.Fatal(err)
		}
	}

	// Wait for delivery.
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(messages) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("\ndelivered over", len(links), "UDP channels:")
	mu.Lock()
	for seq := uint64(0); seq < uint64(len(messages)); seq++ {
		fmt.Printf("  symbol %d: %q\n", seq, got[seq])
	}
	mu.Unlock()

	// 5. The privacy property, concretely: one share alone reveals nothing.
	shares, err := remicss.Split([]byte("top secret"), 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\none share of a 2-of-3 split (useless alone): %x\n", shares[0].Data) //lint:allow taint demo deliberately prints one share to show it reveals nothing alone
	rec, err := remicss.Combine(shares[:2], 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two shares reconstruct: %q\n", rec) //lint:allow taint demo deliberately prints the reconstructed secret
}
