package remicss

import (
	"fmt"
	"time"

	"remicss/internal/udptrans"
)

// UDPLink is one UDP channel to a receiver, with optional token-bucket
// pacing. It satisfies Link.
type UDPLink = udptrans.Link

// UDPListener receives shares across several UDP sockets and feeds them
// into a handler from one goroutine per socket (ServeConcurrent, or
// ServeBatch for kernel-batched reads).
type UDPListener = udptrans.Listener

// WallClock is the clock both ends of a UDP session should pass as
// SenderConfig.Clock and ReceiverConfig.Clock: wall time since the Unix
// epoch, so one-way delays are meaningful whenever the hosts share a clock.
func WallClock() time.Duration { return udptrans.WallClock() }

// ListenUDP binds one UDP socket per address (port 0 picks free ports; see
// UDPListener.Addrs) for the receiving side of a session.
func ListenUDP(addrs []string) (*UDPListener, error) {
	return udptrans.Listen(addrs)
}

// UDPImpairment adds userspace netem-style loss and delay to a UDP channel,
// for reproducing shaped-channel setups without traffic-control privileges.
type UDPImpairment = udptrans.Impairment

// DialUDPImpaired is DialUDP with per-channel impairments (nil entries mean
// unimpaired).
func DialUDPImpaired(addrs []string, rates []float64, burst int, impairments []UDPImpairment) ([]Link, error) {
	if len(impairments) != len(addrs) {
		return nil, fmt.Errorf("remicss: %d impairments for %d addresses", len(impairments), len(addrs))
	}
	if rates != nil && len(rates) != len(addrs) {
		return nil, fmt.Errorf("remicss: %d rates for %d addresses", len(rates), len(addrs))
	}
	links := make([]Link, 0, len(addrs))
	for i, addr := range addrs {
		var rate float64
		if rates != nil {
			rate = rates[i]
		}
		l, err := udptrans.DialImpaired(addr, rate, burst, impairments[i])
		if err != nil {
			for _, prev := range links {
				prev.(*UDPLink).Close()
			}
			return nil, err
		}
		links = append(links, l)
	}
	return links, nil
}

// DialUDP opens one paced UDP channel per address for the sending side of
// a session. rates[i] limits channel i in packets per second (0 means
// unlimited); pass nil for all-unlimited. The returned links satisfy Link
// and plug directly into NewSender.
func DialUDP(addrs []string, rates []float64, burst int) ([]Link, error) {
	if rates != nil && len(rates) != len(addrs) {
		return nil, fmt.Errorf("remicss: %d rates for %d addresses", len(rates), len(addrs))
	}
	links := make([]Link, 0, len(addrs))
	for i, addr := range addrs {
		var rate float64
		if rates != nil {
			rate = rates[i]
		}
		l, err := udptrans.Dial(addr, rate, burst)
		if err != nil {
			for _, prev := range links {
				prev.(*UDPLink).Close()
			}
			return nil, err
		}
		links = append(links, l)
	}
	return links, nil
}
