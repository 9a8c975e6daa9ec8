package remicss

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"remicss/internal/netem"
	"remicss/internal/sharing"
)

// BenchmarkEndToEndSchemes compares real CPU throughput of the full
// protocol stack under each sharing scheme at k=3, m=5 — the ablation
// behind the host cost model's O(k) term and the Auto scheme's fast paths.
func BenchmarkEndToEndSchemes(b *testing.B) {
	schemes := map[string]func() sharing.Scheme{
		"auto":   func() sharing.Scheme { return sharing.NewAuto(rand.New(rand.NewSource(1))) },
		"shamir": func() sharing.Scheme { return sharing.NewShamir(rand.New(rand.NewSource(1))) },
		"authenticated-shamir": func() sharing.Scheme {
			a, err := sharing.NewAuthenticated(sharing.NewShamir(rand.New(rand.NewSource(1))), []byte("bench key"))
			if err != nil {
				b.Fatal(err)
			}
			return a
		},
	}
	for name, mk := range schemes {
		b.Run(name, func(b *testing.B) {
			scheme := mk()
			eng := netem.NewEngine()
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
			payload := bytes.Repeat([]byte{0x3c}, 1400)
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
		})
	}
}
