package main

import (
	"time"

	"remicss"
)

// fate is what the fault script does to one share datagram.
type fate uint8

const (
	fatePass fate = iota
	fateDrop
	fateDup
	fateCorrupt
	fateHold
)

// fateOf is the fault script: the fate of the n-th datagram offered to
// channel ch, a pure function of the seed. bit selects which bit a corrupt
// fate flips.
func fateOf(seed uint64, ch int, n uint64) (f fate, bit uint64) {
	h := splitmix64(seed ^ splitmix64(uint64(ch)+1) ^ n*0x9e3779b97f4a7c15)
	u := float64(h>>11) / (1 << 53)
	bit = splitmix64(h)
	switch {
	case u < faultDrop:
		return fateDrop, bit
	case u < faultDrop+faultDup:
		return fateDup, bit
	case u < faultDrop+faultDup+faultCorrupt:
		return fateCorrupt, bit
	case u < faultDrop+faultDup+faultCorrupt+faultHold:
		return fateHold, bit
	}
	return fatePass, bit
}

// heldDatagram is a share the script is holding back.
type heldDatagram struct {
	release int64
	buf     []byte
}

// faultLink applies the fault script to one channel. It sits between the
// sender and the real socket link and is driven only by the producer
// goroutine, like the sender's own per-link state.
type faultLink struct {
	inner remicss.Link
	seed  uint64
	ch    int
	n     uint64
	clock func() int64

	// intact counts, for the symbol being sent, the shares handed to the
	// socket on time and undamaged; the producer resets and reads it around
	// each Send to know whether the symbol should arrive.
	intact *int

	held    []heldDatagram
	spare   [][]byte
	scratch []byte
}

// Send implements remicss.Link.
func (l *faultLink) Send(datagram []byte) bool {
	now := l.clock()
	l.releaseDue(now)
	f, bit := fateOf(l.seed, l.ch, l.n)
	l.n++
	switch f {
	case fateDrop:
		return true // accepted, then lost on the wire
	case fateDup:
		*l.intact++
		l.inner.Send(datagram)
		return l.inner.Send(datagram)
	case fateCorrupt:
		l.scratch = append(l.scratch[:0], datagram...)
		bit %= uint64(len(l.scratch)) * 8
		l.scratch[bit/8] ^= 1 << (bit % 8)
		return l.inner.Send(l.scratch)
	case fateHold:
		var buf []byte
		if n := len(l.spare); n > 0 {
			buf, l.spare = l.spare[n-1], l.spare[:n-1]
		}
		l.held = append(l.held, heldDatagram{release: now + int64(faultHoldFor), buf: append(buf[:0], datagram...)})
		return true
	}
	*l.intact++
	return l.inner.Send(datagram)
}

// releaseDue sends every held datagram whose hold time has passed.
func (l *faultLink) releaseDue(now int64) {
	i := 0
	for ; i < len(l.held) && l.held[i].release <= now; i++ {
		l.inner.Send(l.held[i].buf)
		l.spare = append(l.spare, l.held[i].buf)
	}
	if i > 0 {
		l.held = append(l.held[:0], l.held[i:]...)
	}
}

// Writable implements remicss.Link.
func (l *faultLink) Writable() bool { return l.inner.Writable() }

// Backlog implements remicss.Link.
func (l *faultLink) Backlog() time.Duration { return l.inner.Backlog() }
