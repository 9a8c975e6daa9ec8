// Package noretain exercises the noretain analyzer: field, channel, pool,
// composite-literal, and closure retention of a Send/HandleDatagram
// argument and of a delivery callback's payload, plus the suppressed and
// clean implementations.
package noretain

import "sync"

// sink retains datagrams every way the analyzer tracks.
type sink struct {
	last []byte
	ch   chan []byte
	pool sync.Pool
}

// Send matches the Link shape and retains its argument.
func (s *sink) Send(datagram []byte) bool {
	s.last = datagram // want `stores the datagram \(or a subslice\) into s\.last`
	alias := datagram[2:]
	s.last = alias           // want `stores the datagram \(or a subslice\) into s\.last`
	s.ch <- datagram         // want `sends the datagram into a channel`
	s.pool.Put(datagram[:4]) // want `puts the datagram into a sync.Pool`
	return true
}

// HandleDatagram captures the buffer in a closure that outlives the call.
func (s *sink) HandleDatagram(buf []byte) {
	go func() { // want `closure in HandleDatagram captures the datagram`
		s.last = buf
	}()
}

// record carries a payload slice.
type record struct{ payload []byte }

// keep is checked via the marker annotation and retains through a
// composite literal.
//
//remicss:noretain
func keep(buf []byte) record {
	return record{payload: buf} // want `stores the datagram into a composite literal`
}

// queueLink retains deliberately, with the justification written down.
type queueLink struct {
	q chan []byte
}

// Send enqueues the datagram for a consumer that owns it afterwards.
//
//lint:allow noretain fixture documents a transport that takes ownership of the buffer
func (l *queueLink) Send(datagram []byte) bool {
	l.q <- datagram
	return true
}

// copyLink copies before retaining, as the contract requires.
type copyLink struct {
	buf []byte
}

// Send copies the datagram into the link's own buffer.
func (l *copyLink) Send(datagram []byte) bool {
	view := datagram[:2]
	_ = view
	l.buf = append(l.buf[:0], datagram...)
	return len(l.buf) > 0
}

// ReceiverConfig stands in for the receiver's configuration: OnSymbol's
// payload is lent for the call.
type ReceiverConfig struct {
	OnSymbol func(seq uint64, payload []byte)
}

// Serve stands in for the facade's Serve, whose third argument is a
// delivery callback.
func Serve(addrs []string, cfg ReceiverConfig, onMessage func(seq uint64, payload []byte)) {}

// NewOrderer stands in for stream.NewOrderer, whose deliver is a delivery
// callback.
func NewOrderer(window int, deliver func(seq uint64, payload []byte)) {}

// retainingCallbacks keeps the lent payload every way a callback can.
func retainingCallbacks() {
	var kept []byte
	got := map[uint64][]byte{}
	var all [][]byte
	_ = ReceiverConfig{
		OnSymbol: func(seq uint64, payload []byte) {
			kept = payload // want `OnSymbol callback stores the payload \(or a subslice\) into kept, declared outside it`
		},
	}
	Serve(nil, ReceiverConfig{}, func(seq uint64, payload []byte) {
		got[seq] = payload[1:] // want `Serve callback stores the payload \(or a subslice\) into got\[seq\]`
	})
	NewOrderer(8, func(seq uint64, p []byte) {
		all = append(all, p) // want `NewOrderer callback appends the payload to a slice as an element`
	})
	_ = ReceiverConfig{
		OnSymbol: func(seq uint64, payload []byte) {
			go func() { // want `closure in OnSymbol callback captures the payload`
				_ = payload
			}()
		},
	}
	_, _, _ = kept, got, all
}

// copyingCallbacks copies what they keep, as the contract requires.
func copyingCallbacks() {
	var kept []byte
	got := map[uint64][]byte{}
	var all [][]byte
	_ = ReceiverConfig{
		OnSymbol: func(seq uint64, payload []byte) {
			head := payload[:2]
			kept = append(kept[:0], head...)
			got[seq] = append([]byte(nil), payload...)
		},
	}
	NewOrderer(8, func(seq uint64, p []byte) {
		all = append(all, append([]byte(nil), p...))
	})
	_, _, _ = kept, got, all
}
