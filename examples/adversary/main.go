// Adversary's-eye view: empirically verify the privacy measure. An
// eavesdropper observes shares on a subset of channels; with fewer than k
// shares the intercepted data is statistically indistinguishable from
// noise, with k or more the symbol is recovered. The empirical interception
// rate over many symbols matches the model's Z(p) prediction.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"remicss"
)

func main() {
	rng := rand.New(rand.NewSource(99))
	scheme := remicss.NewSharingScheme(rng) //lint:allow insecure-rand example deliberately uses a seeded rng so its output is reproducible

	// (a) Information-theoretic secrecy, concretely: split a very
	// non-random message and look at what one share of a 2-of-3 split
	// leaks. Entropy of the share bytes should be that of uniform noise.
	secret := make([]byte, 4096) // all zeros: maximally structured
	shares, err := scheme.SplitSharesInto(secret, 2, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secret entropy:    %.3f bits/byte (all zeros)\n", entropy(secret))
	fmt.Printf("one share entropy: %.3f bits/byte (≈8 = uniform noise)\n", entropy(shares[1].Data))

	two, err := scheme.CombineInto(nil, shares[:2], 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with 2 shares the secret returns: %v (first bytes %v)\n\n",
		string(two[:0])+"ok", two[:4]) //lint:allow taint demo deliberately prints reconstructed bytes to show that k shares suffice

	// (b) The privacy measure Z(p): an adversary with risk z_i per channel.
	set := remicss.ChannelSet{
		{Risk: 0.9, Rate: 100}, // badly exposed channel
		{Risk: 0.3, Rate: 100},
		{Risk: 0.2, Rate: 100},
		{Risk: 0.1, Rate: 100},
	}
	sched, err := remicss.OptimizeSchedule(set, 2, 3, remicss.ObjectiveRisk, remicss.ScheduleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal risk schedule for κ=2, μ=3 avoids the exposed channel:")
	for _, a := range sched.Support() {
		fmt.Printf("  p%v = %.4f\n", a, sched[a])
	}
	predicted := sched.Risk(set)

	// Monte-Carlo the adversary: for each symbol, draw (k, M) from the
	// schedule, then each share on channel i is observed with probability
	// z_i; the symbol leaks iff the adversary holds at least k shares.
	sampler := newSampler(sched, rng)
	const symbols = 200000
	leaks := 0
	for s := 0; s < symbols; s++ {
		k, mask := sampler()
		observed := 0
		for i := range set {
			if mask&(1<<uint(i)) != 0 && rng.Float64() < set[i].Risk {
				observed++
			}
		}
		if observed >= k {
			leaks++
		}
	}
	empirical := float64(leaks) / symbols
	fmt.Printf("\npredicted Z(p) = %.5f\n", predicted)
	fmt.Printf("empirical Z    = %.5f over %d symbols\n", empirical, symbols)
	fmt.Printf("agreement within %.2f%%\n", math.Abs(predicted-empirical)/predicted*100)

	// (c) Compare against a naive schedule that uses every channel —
	// including the exposed one — with the same κ and μ.
	naive := remicss.Schedule{
		{K: 2, Mask: 0b0111}: 0.5,
		{K: 2, Mask: 0b1101}: 0.5,
	}
	fmt.Printf("\nnaive schedule using the exposed channel: Z = %.5f (%.1fx worse)\n",
		naive.Risk(set), naive.Risk(set)/predicted)
}

// entropy computes the empirical byte entropy in bits per byte.
func entropy(data []byte) float64 {
	var counts [256]float64
	for _, b := range data {
		counts[b]++
	}
	var h float64
	n := float64(len(data))
	for _, c := range counts {
		if c > 0 {
			p := c / n
			h -= p * math.Log2(p)
		}
	}
	return h
}

// newSampler returns a closure drawing (k, mask) from the schedule.
func newSampler(sched remicss.Schedule, rng *rand.Rand) func() (int, uint32) {
	type entry struct {
		a   remicss.Assignment
		cum float64
	}
	var entries []entry
	var cum float64
	for _, a := range sched.Support() {
		cum += sched[a]
		entries = append(entries, entry{a, cum})
	}
	return func() (int, uint32) {
		u := rng.Float64() * cum
		for _, e := range entries {
			if u <= e.cum {
				return e.a.K, e.a.Mask
			}
		}
		last := entries[len(entries)-1]
		return last.a.K, last.a.Mask
	}
}
