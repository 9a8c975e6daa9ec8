package remicss

import "remicss/internal/stream"

// StreamWriter chunks a byte stream into protocol symbols (io.Writer).
type StreamWriter = stream.Writer

// StreamOrderer re-sequences delivered symbols into send order, skipping
// symbols that never arrive once they fall outside the reordering window.
type StreamOrderer = stream.Orderer

// StreamOrdererStats counts orderer activity.
type StreamOrdererStats = stream.OrdererStats

// ErrWriterStopped is returned by a StreamWriter whose retry policy gave
// up.
var ErrWriterStopped = stream.ErrWriterStopped

// NewStreamWriter adapts a symbol send function (typically Sender.Send
// wrapped with any waiting policy) into an io.Writer. retry is consulted on
// send errors: return true to retry the same chunk, false to fail the
// stream; nil fails on the first error.
func NewStreamWriter(send func([]byte) error, chunkSize int, retry func(error) bool) (*StreamWriter, error) {
	return stream.NewWriter(send, chunkSize, retry)
}

// NewStreamOrderer builds an in-order delivery buffer over Receiver
// symbols: feed OnSymbol's (seq, payload) into Push and receive the stream
// in order via deliver. onGap (may be nil) is told once per run of symbols
// given up on: its first sequence number and its length.
func NewStreamOrderer(window int, deliver func(seq uint64, payload []byte), onGap func(first, n uint64)) (*StreamOrderer, error) {
	return stream.NewOrderer(window, deliver, onGap)
}
