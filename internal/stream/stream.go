// Package stream adapts the symbol-oriented ReMICSS protocol to ordered
// byte streams.
//
// The reference protocol is deliberately best-effort and per-symbol (the
// paper's DIBS interception carries IP datagrams). Applications that want a
// pipe instead of datagrams need two adapters:
//
//   - Writer chunks a byte stream into symbols and pushes them through a
//     send function, retrying on backpressure.
//   - Orderer re-sequences delivered symbols (which arrive out of order
//     across channels) into their original order, skipping symbols that
//     never arrive once they fall outside the reordering window, like a
//     jitter buffer.
package stream

import (
	"errors"
	"fmt"
	"math"
)

// Writer chunks written bytes into protocol symbols. It implements
// io.Writer; every Write is split into chunks of at most ChunkSize bytes,
// each handed to the send function.
type Writer struct {
	send  func([]byte) error
	retry func(error) bool
	chunk int
	err   error
}

// ErrWriterStopped is returned once the retry policy gives up; subsequent
// writes fail immediately.
var ErrWriterStopped = errors.New("stream: writer stopped")

// NewWriter builds a Writer. send transmits one symbol. retry is consulted
// when send fails: return true to try the same chunk again (after whatever
// waiting the callback performs), false to give up and surface the error;
// a nil retry gives up on the first error.
func NewWriter(send func([]byte) error, chunkSize int, retry func(error) bool) (*Writer, error) {
	if send == nil {
		return nil, errors.New("stream: nil send function")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("stream: non-positive chunk size %d", chunkSize)
	}
	return &Writer{send: send, retry: retry, chunk: chunkSize}, nil
}

// Write implements io.Writer with the usual contract: it returns the number
// of bytes consumed and an error if the stream failed.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	written := 0
	for len(p) > 0 {
		n := w.chunk
		if n > len(p) {
			n = len(p)
		}
		for {
			err := w.send(p[:n])
			if err == nil {
				break
			}
			if w.retry == nil || !w.retry(err) {
				w.err = fmt.Errorf("%w: %v", ErrWriterStopped, err)
				return written, w.err
			}
		}
		written += n
		p = p[n:]
	}
	return written, nil
}

// Orderer re-sequences symbols by sequence number. Push accepts symbols in
// any order; deliver is invoked in strictly increasing sequence order. When
// more than Window out-of-order symbols accumulate, the oldest gap is
// declared lost (onGap) and delivery resumes past it.
//
// Payloads are borrowed on both sides, like a Receiver's OnSymbol payload:
// Push reads its payload only during the call, and deliver's payload is
// valid only during its call. A symbol that must wait for its turn is copied
// into a buffer the Orderer owns, which is wiped once delivered and holds the
// next symbol that must wait.
type Orderer struct {
	deliver func(seq uint64, payload []byte)
	onGap   func(first, n uint64)
	window  int

	next    uint64
	pending map[uint64][]byte //remicss:secret
	free    [][]byte          // wiped buffers of delivered waiting symbols //remicss:secret

	delivered, skipped, duplicate, stale int64
}

// OrdererStats counts orderer activity.
type OrdererStats struct {
	// Delivered counts symbols handed out in order.
	Delivered int64
	// Skipped counts sequence numbers declared lost.
	Skipped int64
	// Duplicate counts repeated sequence numbers.
	Duplicate int64
	// Stale counts symbols arriving after their slot was skipped.
	Stale int64
}

// NewOrderer builds an orderer delivering in-order from sequence 0. window
// bounds the number of buffered out-of-order symbols before the oldest gap
// is skipped. deliver must copy what it keeps of a payload. onGap, which
// may be nil, is called once per skipped gap with its first sequence number
// and its length.
func NewOrderer(window int, deliver func(seq uint64, payload []byte), onGap func(first, n uint64)) (*Orderer, error) {
	if deliver == nil {
		return nil, errors.New("stream: nil deliver function")
	}
	if window <= 0 {
		return nil, fmt.Errorf("stream: non-positive window %d", window)
	}
	return &Orderer{
		deliver: deliver,
		onGap:   onGap,
		window:  window,
		pending: make(map[uint64][]byte),
	}, nil
}

// Push accepts one symbol and reads payload only during the call: the next
// symbol in order goes to deliver as is, and a later one is copied before it
// waits, so callers may reuse or wipe payload as soon as Push returns.
func (o *Orderer) Push(seq uint64, payload []byte) {
	switch {
	case seq < o.next:
		o.stale++
		return
	case seq == o.next:
		o.deliver(seq, payload)
		o.delivered++
		o.next++
		o.drain()
	default:
		if _, dup := o.pending[seq]; dup {
			o.duplicate++
			return
		}
		var buf []byte
		if n := len(o.free); n > 0 {
			buf, o.free = o.free[n-1], o.free[:n-1]
		}
		o.pending[seq] = append(buf, payload...)
		for len(o.pending) > o.window {
			o.skipOldestGap()
		}
	}
}

// Flush delivers everything buffered, skipping all remaining gaps. Call at
// end of stream.
func (o *Orderer) Flush() {
	for len(o.pending) > 0 {
		o.skipOldestGap()
	}
}

// Stats returns a snapshot of the counters.
func (o *Orderer) Stats() OrdererStats {
	return OrdererStats{
		Delivered: o.delivered,
		Skipped:   o.skipped,
		Duplicate: o.duplicate,
		Stale:     o.stale,
	}
}

// Pending returns the number of buffered out-of-order symbols.
func (o *Orderer) Pending() int { return len(o.pending) }

// drain delivers consecutive buffered symbols starting at next, wiping each
// buffer into the free list once deliver returns.
func (o *Orderer) drain() {
	for {
		payload, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.deliver(o.next, payload)
		clear(payload)
		o.free = append(o.free, payload[:0])
		o.delivered++
		o.next++
	}
}

// skipOldestGap declares the head-of-line gap lost in one step, however
// long it is, and resumes delivery from the smallest buffered sequence
// number. pending never holds next (drain would have delivered it), so the
// caller's non-empty pending makes the gap at least one long.
func (o *Orderer) skipOldestGap() {
	lowest := ^uint64(0)
	for seq := range o.pending {
		lowest = min(lowest, seq)
	}
	n := lowest - o.next
	if o.onGap != nil {
		o.onGap(o.next, n)
	}
	// A forged or restarted sequence number can open a gap of 2^63 or
	// more; the count saturates rather than wrapping negative.
	o.skipped += int64(min(n, math.MaxInt64-uint64(o.skipped)))
	o.next = lowest
	o.drain()
}
